/**
 * @file
 * Tests for the page-residency model underlying all RSS measurements.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "sim/page_model.h"

namespace
{

using namespace alaska;

TEST(PageModel, TouchMakesPagesResident)
{
    PageModel pm(4096);
    EXPECT_EQ(pm.rss(), 0u);
    pm.touch(0, 1);
    EXPECT_EQ(pm.rss(), 4096u);
    pm.touch(4096, 4096);
    EXPECT_EQ(pm.rss(), 8192u);
}

TEST(PageModel, TouchSpanningPagesCountsAll)
{
    PageModel pm(4096);
    pm.touch(4000, 200); // straddles a page boundary
    EXPECT_EQ(pm.rss(), 8192u);
}

TEST(PageModel, RepeatTouchIsIdempotent)
{
    PageModel pm(4096);
    pm.touch(0, 4096);
    pm.touch(0, 4096);
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, DiscardReleasesOnlyFullPages)
{
    PageModel pm(4096);
    pm.touch(0, 3 * 4096);
    // Range covers page 1 fully, pages 0 and 2 partially.
    pm.discard(100, 2 * 4096);
    EXPECT_EQ(pm.rss(), 2 * 4096u);
    EXPECT_TRUE(pm.isResident(0));
    EXPECT_FALSE(pm.isResident(4096));
    EXPECT_TRUE(pm.isResident(2 * 4096));
}

TEST(PageModel, DiscardSmallerThanAPageIsANoop)
{
    PageModel pm(4096);
    pm.touch(0, 4096);
    pm.discard(0, 100);
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, RetouchAfterDiscardCostsAgain)
{
    PageModel pm(4096);
    pm.touch(0, 4096);
    pm.discard(0, 4096);
    EXPECT_EQ(pm.rss(), 0u);
    pm.touch(0, 1);
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, AliasSharesAFrame)
{
    // The Mesh trick: two virtual pages, one physical frame.
    PageModel pm(4096);
    pm.touch(0, 4096);        // page 0 resident
    pm.touch(8 * 4096, 4096); // page 8 resident
    EXPECT_EQ(pm.rss(), 2 * 4096u);
    pm.alias(8 * 4096, 0); // mesh page 8 onto page 0
    EXPECT_EQ(pm.rss(), 4096u);
    // Touching through either virtual page keeps one frame.
    pm.touch(8 * 4096, 4096);
    pm.touch(0, 4096);
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, AliasChainsCollapseToOneFrame)
{
    PageModel pm(4096);
    pm.touch(0, 4096);
    pm.touch(4096, 4096);
    pm.touch(8192, 4096);
    pm.alias(4096, 0);
    pm.alias(8192, 4096); // through the alias, lands on frame 0
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, CustomPageSize)
{
    PageModel pm(1 << 16); // 64 KiB "pages"
    pm.touch(1, 2);
    EXPECT_EQ(pm.rss(), static_cast<size_t>(1 << 16));
}

TEST(PageModel, ClearForgetsResidencyAndAliases)
{
    PageModel pm(4096);
    pm.touch(0, 3 * 4096);
    pm.alias(2 * 4096, 0);
    pm.clear();
    EXPECT_EQ(pm.rss(), 0u);
    EXPECT_EQ(pm.aliasedPages(), 0u);
    EXPECT_FALSE(pm.isResident(0));
    pm.touch(2 * 4096, 1); // a private frame again
    EXPECT_EQ(pm.rss(), 4096u);
    EXPECT_TRUE(pm.isResident(2 * 4096));
    EXPECT_FALSE(pm.isResident(0));
}

/**
 * The residency rules written the obvious way: a set of resident
 * frames plus the alias map, with the alias rules of PageModel::alias/
 * unalias (targets resolve through one existing alias; aliasing
 * releases the page's old frame; unaliasing makes the private frame
 * resident). The differential test below holds the radix bitmap to it.
 */
class ReferenceModel
{
  public:
    explicit ReferenceModel(uint64_t page) : page_(page) {}

    void
    touch(uint64_t addr, uint64_t len)
    {
        if (len == 0)
            return;
        for (uint64_t p = addr / page_; p <= (addr + len - 1) / page_; p++)
            resident_.insert(frameOf(p));
    }

    void
    discard(uint64_t addr, uint64_t len)
    {
        if (len < page_)
            return;
        for (uint64_t p = (addr + page_ - 1) / page_;
             p < (addr + len) / page_; p++)
            resident_.erase(frameOf(p));
    }

    void
    alias(uint64_t vpage_addr, uint64_t target_addr)
    {
        const uint64_t vpage = vpage_addr / page_;
        const uint64_t target = frameOf(target_addr / page_);
        const uint64_t old_frame = frameOf(vpage);
        if (old_frame == target)
            return;
        aliases_[vpage] = target;
        resident_.erase(old_frame);
    }

    void
    unalias(uint64_t vpage_addr)
    {
        const uint64_t vpage = vpage_addr / page_;
        if (aliases_.erase(vpage) != 0)
            resident_.insert(vpage);
    }

    uint64_t rss() const { return resident_.size() * page_; }

    bool
    isResident(uint64_t addr) const
    {
        return resident_.count(frameOf(addr / page_)) != 0;
    }

    const std::map<uint64_t, uint64_t> &aliases() const { return aliases_; }

  private:
    uint64_t
    frameOf(uint64_t vpage) const
    {
        auto it = aliases_.find(vpage);
        return it == aliases_.end() ? vpage : it->second;
    }

    uint64_t page_;
    std::set<uint64_t> resident_;
    std::map<uint64_t, uint64_t> aliases_;
};

/**
 * Replay a seeded random mix of touch/discard/alias/unalias calls on
 * both models and compare rss() and isResident() after every call.
 * Calls land in windows of pages around address 0, a leaf boundary
 * near 0, the phantom base and the real-mmap range, so ranges straddle
 * word, leaf and mid-node boundaries of the radix. The run alternates
 * alias-free phases (the range fast path) with aliasing phases (the
 * per-page path), unaliasing everything between them.
 */
void
replayAgainstReference(uint64_t page, uint64_t seed)
{
    constexpr uint64_t windowPages = 256;
    constexpr uint64_t leafPages = uint64_t{1} << 15;
    const uint64_t centers[] = {
        windowPages / 2 * page,       // starts at address 0
        leafPages * page,             // first leaf boundary
        UINT64_C(0x100000000000),     // phantom base
        UINT64_C(0x7f0000000000),     // real-mmap range
        UINT64_C(0x7f0000000000) + 3 * leafPages * page,
    };
    PageModel pm(page);
    ReferenceModel ref(page);
    Rng rng(seed);

    auto window_start = [&](size_t i) {
        return centers[i] - windowPages / 2 * page;
    };
    auto random_addr = [&]() {
        const size_t w = rng.below(std::size(centers));
        return window_start(w) + rng.below(windowPages * page);
    };
    auto random_len = [&]() -> uint64_t {
        switch (rng.below(4)) {
        case 0:
            return rng.below(page); // sub-page, possibly zero
        case 1:
            return rng.range(1, 4 * page);
        case 2:
            return rng.range(1, 100 * page); // spans >1 bitmap word
        default:
            return rng.range(1, 8) * page;
        }
    };
    auto check_range = [&](uint64_t addr, uint64_t len, uint64_t op) {
        ASSERT_EQ(pm.rss(), ref.rss()) << "after op " << op;
        for (uint64_t a = addr - page; a <= addr + len + page; a += page)
            ASSERT_EQ(pm.isResident(a), ref.isResident(a))
                << "op " << op << " addr " << std::hex << a;
        const uint64_t probe = random_addr();
        ASSERT_EQ(pm.isResident(probe), ref.isResident(probe))
            << "op " << op << " probe " << std::hex << probe;
    };

    constexpr uint64_t ops = 120000;
    constexpr uint64_t phaseOps = 10000;
    for (uint64_t op = 0; op < ops; op++) {
        const bool aliasing = (op / phaseOps) % 2 == 1;
        if (op % phaseOps == 0 && !aliasing) {
            // Back to the fast path: dissolve every alias.
            while (!ref.aliases().empty()) {
                const uint64_t vpage = ref.aliases().begin()->first;
                pm.unalias(vpage * page);
                ref.unalias(vpage * page);
            }
            ASSERT_EQ(pm.aliasedPages(), 0u);
        }
        const uint64_t kind = rng.below(aliasing ? 10 : 8);
        uint64_t addr = random_addr();
        uint64_t len = 0;
        if (kind < 5) {
            len = random_len();
            pm.touch(addr, len);
            ref.touch(addr, len);
        } else if (kind < 8) {
            len = random_len();
            pm.discard(addr, len);
            ref.discard(addr, len);
        } else if (kind == 8) {
            const uint64_t target = random_addr();
            pm.alias(addr, target);
            ref.alias(addr, target);
            ASSERT_EQ(pm.isResident(target), ref.isResident(target));
        } else {
            if (!ref.aliases().empty() && rng.chance(0.8)) {
                auto it = ref.aliases().begin();
                std::advance(it, rng.below(ref.aliases().size()));
                addr = it->first * page;
            }
            pm.unalias(addr);
            ref.unalias(addr);
        }
        ASSERT_EQ(pm.aliasedPages(), ref.aliases().size());
        check_range(addr, len, op);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // Final full sweep of every window.
    for (size_t w = 0; w < std::size(centers); w++) {
        for (uint64_t p = 0; p < windowPages; p++) {
            const uint64_t a = window_start(w) + p * page;
            ASSERT_EQ(pm.isResident(a), ref.isResident(a));
        }
    }
}

TEST(PageModel, MatchesReferenceModelAt4KiBPages)
{
    replayAgainstReference(4096, 1401);
}

TEST(PageModel, MatchesReferenceModelAt64KiBPages)
{
    replayAgainstReference(64 * 1024, 1402);
}

TEST(PageModel, RangesStraddlingALeafBoundary)
{
    // A leaf of the radix covers 2^15 frames; one touch/discard pair
    // spanning two leaves must count and release every page once.
    PageModel pm(4096);
    const uint64_t boundary = (uint64_t{1} << 15) * 4096;
    pm.touch(boundary - 100 * 4096, 200 * 4096);
    EXPECT_EQ(pm.residentPages(), 200u);
    pm.touch(boundary - 4096, 2 * 4096);
    EXPECT_EQ(pm.residentPages(), 200u);
    pm.discard(boundary - 50 * 4096, 100 * 4096);
    EXPECT_EQ(pm.residentPages(), 100u);
    EXPECT_FALSE(pm.isResident(boundary));
    EXPECT_TRUE(pm.isResident(boundary + 50 * 4096));
    pm.discard(0, 2 * boundary);
    EXPECT_EQ(pm.rss(), 0u);
}

TEST(PageModel, DiscardOfUntouchedRangesIsFree)
{
    // A discard far outside anything touched (a phantom unmap of a
    // 64 GiB heap) releases nothing and must not build radix nodes.
    PageModel pm(4096);
    pm.touch(UINT64_C(0x100000000000), 4096);
    pm.discard(UINT64_C(0x200000000000), 64ull << 30);
    pm.discard(UINT64_C(0x7f0000000000), 1ull << 40);
    EXPECT_EQ(pm.rss(), 4096u);
    EXPECT_FALSE(pm.isResident(UINT64_C(0x7f0000000000)));

    // A discard that starts in a never-touched leaf still releases the
    // next leaf's pages, from its first page on.
    const uint64_t leaf_bytes = (uint64_t{1} << 15) * 4096;
    const uint64_t next_leaf = UINT64_C(0x7f0000000000) + 2 * leaf_bytes;
    pm.touch(next_leaf, 2 * 4096);
    EXPECT_EQ(pm.rss(), 3 * 4096u);
    pm.discard(next_leaf - leaf_bytes / 2, leaf_bytes);
    EXPECT_EQ(pm.rss(), 4096u);
    EXPECT_FALSE(pm.isResident(next_leaf));
}

TEST(PageModel, HighestModelledPageWorks)
{
    // 2^37 frames: the last 4 KiB page below 512 TiB is in range.
    PageModel pm(4096);
    const uint64_t limit = (uint64_t{1} << 37) * 4096;
    pm.touch(limit - 4096, 4096);
    EXPECT_TRUE(pm.isResident(limit - 4096));
    EXPECT_FALSE(pm.isResident(limit));
    pm.discard(limit - 4096, 1 << 20); // runs past the range: clamped
    EXPECT_EQ(pm.rss(), 0u);
}

TEST(PageModelDeathTest, NonPowerOfTwoPageSizeIsFatal)
{
    EXPECT_DEATH(PageModel pm(3000), "not a power of two");
    EXPECT_DEATH(PageModel pm(0), "not a power of two");
}

TEST(PageModelDeathTest, FrameBeyondTheRadixIsFatal)
{
    const uint64_t limit = (uint64_t{1} << 37) * 4096;
    EXPECT_DEATH(
        {
            PageModel pm(4096);
            pm.touch(limit, 1);
        },
        "beyond the modelled range");
}

TEST(PageModel, ConcurrentTouchesCountEveryPageOnce)
{
    // Four threads touch their own ranges plus one shared range (all
    // racing to install the shared leaf), then discard their own. The
    // resident count is exact afterwards: every 0->1 and 1->0 bit
    // transition is counted by exactly one thread.
    constexpr int threads = 4;
    constexpr uint64_t page = 4096;
    constexpr uint64_t ownPages = 3000;
    constexpr uint64_t sharedPages = 5000;
    const uint64_t shared_base = UINT64_C(0x7f0000000000);
    for (int round = 0; round < 5; round++) {
        PageModel pm(page);
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; t++) {
            workers.emplace_back([&, t] {
                Rng rng(7000 + round * threads + t);
                const uint64_t own = UINT64_C(0x100000000000) +
                                     t * (uint64_t{1} << 30);
                for (uint64_t p = 0; p < ownPages;) {
                    const uint64_t n =
                        std::min<uint64_t>(rng.range(1, 80), ownPages - p);
                    pm.touch(own + p * page, n * page);
                    p += n;
                }
                for (uint64_t p = 0; p < sharedPages;) {
                    const uint64_t n = std::min<uint64_t>(
                        rng.range(1, 80), sharedPages - p);
                    pm.touch(shared_base + p * page, n * page - 1);
                    p += n;
                }
                pm.discard(own, ownPages * page);
            });
        }
        for (auto &w : workers)
            w.join();
        ASSERT_EQ(pm.residentPages(), sharedPages);
        ASSERT_EQ(pm.rss(), sharedPages * page);
        EXPECT_TRUE(pm.isResident(shared_base));
        EXPECT_FALSE(pm.isResident(UINT64_C(0x100000000000)));
    }
}

TEST(PageModel, RacingTouchAndDiscardNeverReportWrappedRss)
{
    // Touches and discards of the same pages race. Mid-race the count
    // may be off by the pages of calls in flight (at most one bitmap
    // word per writer), but a reader never sees a wrapped value, and
    // after the race the count is exact.
    constexpr uint64_t page = 4096;
    constexpr uint64_t pages = 64;
    constexpr int writers = 3;
    PageModel pm(page);
    std::atomic<bool> done{false};
    std::thread reader([&] {
        while (!done.load(std::memory_order_relaxed))
            ASSERT_LE(pm.residentPages(), pages + writers * 64);
    });
    std::vector<std::thread> workers;
    for (int t = 0; t < writers; t++) {
        workers.emplace_back([&, t] {
            Rng rng(9100 + t);
            for (int i = 0; i < 20000; i++) {
                const uint64_t p = rng.below(pages);
                const uint64_t n = rng.range(1, pages - p);
                if (rng.chance(0.5))
                    pm.touch(p * page, n * page);
                else
                    pm.discard(p * page, n * page);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    done.store(true, std::memory_order_relaxed);
    reader.join();
    uint64_t resident = 0;
    for (uint64_t p = 0; p < pages; p++)
        resident += pm.isResident(p * page) ? 1 : 0;
    EXPECT_EQ(pm.residentPages(), resident);
}

} // namespace
