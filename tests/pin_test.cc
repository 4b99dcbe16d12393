/**
 * @file
 * Tests for pin frames and the pinned-set unification performed at
 * barriers (§3.4, §4.1.3).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "api/access.h"
#include "core/malloc_service.h"
#include "core/pin.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "services/concurrent_reloc.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;

class PinTest : public ::testing::Test
{
  protected:
    PinTest()
        : runtime_(RuntimeConfig{.tableCapacity = 1u << 12}),
          registration_(runtime_)
    {
        runtime_.attachService(&service_);
    }

    // Declaration order matters: the service must outlive the runtime.
    MallocService service_;
    Runtime runtime_;
    ThreadRegistration registration_;
};

TEST_F(PinTest, PinnedHandleAppearsInBarrierSet)
{
    void *h = runtime_.halloc(64);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    {
        ALASKA_PIN_FRAME(frame, 2);
        frame.pin(0, h);
        runtime_.barrier([&](const PinnedSet &pinned) {
            EXPECT_TRUE(pinned.contains(id));
            EXPECT_EQ(pinned.count(), 1u);
        });
    }
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_FALSE(pinned.contains(id));
        EXPECT_EQ(pinned.count(), 0u);
    });
    runtime_.hfree(h);
}

TEST_F(PinTest, ReleasedSlotIsNotPinned)
{
    void *h = runtime_.halloc(64);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    ALASKA_PIN_FRAME(frame, 1);
    frame.pin(0, h);
    frame.release(0);
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_FALSE(pinned.contains(id));
    });
    runtime_.hfree(h);
}

TEST_F(PinTest, RawPointersInSlotsAreIgnored)
{
    int local = 0;
    ALASKA_PIN_FRAME(frame, 1);
    EXPECT_EQ(frame.pin(0, &local), &local);
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_EQ(pinned.count(), 0u);
    });
}

TEST_F(PinTest, NestedFramesUnionTheirPins)
{
    void *a = runtime_.halloc(8);
    void *b = runtime_.halloc(8);
    const uint32_t ida = handleId(reinterpret_cast<uint64_t>(a));
    const uint32_t idb = handleId(reinterpret_cast<uint64_t>(b));
    ALASKA_PIN_FRAME(outer, 1);
    outer.pin(0, a);
    {
        ALASKA_PIN_FRAME(inner, 1);
        inner.pin(0, b);
        runtime_.barrier([&](const PinnedSet &pinned) {
            EXPECT_TRUE(pinned.contains(ida));
            EXPECT_TRUE(pinned.contains(idb));
        });
    }
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_TRUE(pinned.contains(ida));
        EXPECT_FALSE(pinned.contains(idb));
    });
    runtime_.hfree(a);
    runtime_.hfree(b);
}

TEST_F(PinTest, SlotReuseTracksTheLatestHandle)
{
    // The interference-graph allocator gives non-overlapping translations
    // the same slot; the slot must always reflect the live one.
    void *a = runtime_.halloc(8);
    void *b = runtime_.halloc(8);
    const uint32_t ida = handleId(reinterpret_cast<uint64_t>(a));
    const uint32_t idb = handleId(reinterpret_cast<uint64_t>(b));
    ALASKA_PIN_FRAME(frame, 1);
    frame.pin(0, a);
    frame.pin(0, b); // overwrites: a's live range ended
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_FALSE(pinned.contains(ida));
        EXPECT_TRUE(pinned.contains(idb));
    });
    runtime_.hfree(a);
    runtime_.hfree(b);
}

TEST_F(PinTest, PinnedInteriorHandlePinsTheObject)
{
    void *h = runtime_.halloc(128);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    void *interior =
        reinterpret_cast<void *>(reinterpret_cast<uint64_t>(h) + 64);
    ALASKA_PIN_FRAME(frame, 1);
    frame.pin(0, interior);
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_TRUE(pinned.contains(id));
    });
    runtime_.hfree(h);
}

TEST_F(PinTest, PinnedHelperReleasesOnScopeExit)
{
    void *h = runtime_.halloc(sizeof(int));
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    {
        pinned<int> p(static_cast<int *>(h));
        *p = 9;
        runtime_.barrier([&](const PinnedSet &pinned) {
            EXPECT_TRUE(pinned.contains(id));
        });
    }
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_FALSE(pinned.contains(id));
    });
    runtime_.hfree(h);
}

TEST(PinAtomicTest, AtomicModeCountsPins)
{
    MallocService service;
    Runtime runtime(RuntimeConfig{.tableCapacity = 256,
                                  .pinMode = PinMode::AtomicPins});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);

    void *h = runtime.halloc(16);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    {
        AtomicPin pin(h);
        EXPECT_NE(pin.get(), nullptr);
        runtime.barrier([&](const PinnedSet &pinned) {
            EXPECT_TRUE(pinned.contains(id));
        });
    }
    runtime.barrier([&](const PinnedSet &pinned) {
        EXPECT_FALSE(pinned.contains(id));
    });
    runtime.hfree(h);
}

TEST(PinMoverTest, MoverHonorsEveryPinKindFarBelowTheWatermark)
{
    // Pinned sets read atomic pins from the entry at lookup time; this
    // drives that check through the real Anchorage mover, with the
    // pinned IDs far below the handle table's watermark.
    RealAddressSpace space;
    anchorage::AnchorageService service(
        space, anchorage::AnchorageConfig{.shards = 1});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18,
                                  .pinMode = PinMode::AtomicPins});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);

    constexpr size_t size = 64;
    constexpr int n_targets = 32;
    // Low filler whose frees leave holes below the targets; high
    // filler that lifts the watermark far above the targets' IDs.
    std::vector<void *> low, targets, high;
    for (int i = 0; i < 4096; i++)
        low.push_back(runtime.halloc(size));
    for (int i = 0; i < n_targets; i++) {
        targets.push_back(runtime.halloc(size));
        std::memset(translate(targets.back()), i + 1, size);
    }
    for (int i = 0; i < 60000; i++)
        high.push_back(runtime.halloc(size));
    for (void *h : low)
        runtime.hfree(h);
    for (void *h : high)
        runtime.hfree(h);
    auto id_of = [](void *h) {
        return handleId(reinterpret_cast<uint64_t>(h));
    };
    ASSERT_GT(runtime.table().watermark(),
              10 * id_of(targets.back()));

    std::vector<void *> before;
    for (void *h : targets)
        before.push_back(runtime.table().entry(id_of(h)).ptr.load());

    // Four ways to pin: a bare ConcurrentPin (atomic only), pinned<T>
    // under the Scoped discipline (frame slot plus atomic pin),
    // AtomicPin (the ablation's atomic count), and a pin frame.
    const std::vector<int> pinned_idx = {3, 10, 17, 24};
    anchorage::DefragStats stats;
    {
        ConcurrentPin concurrent(targets[3]);
        Runtime::declareConcurrentDefrag();
        pinned<unsigned char> typed(
            static_cast<unsigned char *>(targets[10]));
        Runtime::retireConcurrentDefrag();
        AtomicPin atomic(targets[17]);
        ALASKA_PIN_FRAME(frame, 1);
        frame.pin(0, targets[24]);

        runtime.barrier([&](const PinnedSet &set) {
            EXPECT_EQ(set.count(), pinned_idx.size());
            for (int i : pinned_idx)
                EXPECT_TRUE(set.contains(id_of(targets[i]))) << i;
            EXPECT_FALSE(set.contains(id_of(targets[0])));
        });
        stats = service.defrag(SIZE_MAX);
    }

    EXPECT_EQ(stats.pinnedSkips, pinned_idx.size());
    EXPECT_EQ(stats.movedObjects, n_targets - pinned_idx.size());
    for (int i = 0; i < n_targets; i++) {
        const bool is_pinned =
            std::find(pinned_idx.begin(), pinned_idx.end(), i) !=
            pinned_idx.end();
        void *now = runtime.table().entry(id_of(targets[i])).ptr.load();
        if (is_pinned)
            EXPECT_EQ(now, before[i]) << "pinned target " << i << " moved";
        else
            EXPECT_NE(now, before[i]) << "target " << i << " stayed";
        const auto *bytes = static_cast<unsigned char *>(now);
        for (size_t b = 0; b < size; b++)
            ASSERT_EQ(bytes[b], i + 1) << "target " << i << " byte " << b;
    }
    for (void *h : targets)
        runtime.hfree(h);
}

} // namespace
