/**
 * @file
 * Tests for the real and phantom address spaces.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "anchorage/sub_heap.h"
#include "base/rng.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;

TEST(RealAddressSpace, CopyMovesRealBytes)
{
    RealAddressSpace space;
    const uint64_t base = space.map(1 << 16);
    char *p = static_cast<char *>(space.raw(base));
    std::strcpy(p, "hello");
    space.touch(base, 6);
    space.copy(base + 4096, base, 6);
    EXPECT_STREQ(static_cast<char *>(space.raw(base + 4096)), "hello");
    EXPECT_EQ(space.rss(), 2 * 4096u);
    space.unmap(base, 1 << 16);
}

TEST(RealAddressSpace, DiscardReducesAccountedRss)
{
    RealAddressSpace space;
    const uint64_t base = space.map(1 << 16);
    space.touch(base, 1 << 16);
    EXPECT_EQ(space.rss(), static_cast<size_t>(1 << 16));
    space.discard(base, 1 << 16);
    EXPECT_EQ(space.rss(), 0u);
    // And the memory is still mapped and zero after MADV_DONTNEED.
    EXPECT_EQ(*static_cast<char *>(space.raw(base)), 0);
    space.unmap(base, 1 << 16);
}

TEST(PhantomAddressSpace, RegionsDoNotOverlap)
{
    PhantomAddressSpace space;
    const uint64_t a = space.map(1 << 20);
    const uint64_t b = space.map(1 << 20);
    EXPECT_GE(b, a + (1 << 20));
    EXPECT_EQ(space.raw(a), nullptr);
}

TEST(PhantomAddressSpace, AccountingMatchesRealBehaviour)
{
    PhantomAddressSpace space;
    const uint64_t base = space.map(1 << 20);
    space.touch(base, 10000);
    EXPECT_EQ(space.rss(), 3 * 4096u);
    space.copy(base + (1 << 19), base, 10000);
    EXPECT_EQ(space.rss(), 6 * 4096u);
    // Discard the first half only; the copied pages must survive.
    space.discard(base, 1 << 19);
    EXPECT_EQ(space.rss(), 3 * 4096u);
    space.unmap(base, 1 << 20);
    EXPECT_EQ(space.rss(), 0u);
}

TEST(PhantomAddressSpace, CanModelHugeHeaps)
{
    // The whole point: a 64 GiB heap with no real memory behind it.
    PhantomAddressSpace space;
    const uint64_t base = space.map(64ull << 30);
    space.touch(base, 1 << 20);
    space.touch(base + (63ull << 30), 1 << 20);
    EXPECT_EQ(space.rss(), 2 * (1u << 20));
    space.unmap(base, 64ull << 30);
}

/**
 * Kernel differential: the page model must agree with mincore(2) on
 * every page of a real-backed sub-heap after each step of its life —
 * allocation (with every allocated byte written), frees plus a
 * coalesce and a tail trim (MADV_DONTNEED), and a copy into discarded
 * pages. The region is mapped MADV_NOHUGEPAGE so a kernel whose THP
 * mode is "always" cannot back it with a huge page that makes
 * never-touched neighbours resident.
 */
TEST(RealAddressSpace, PageModelMatchesMincore)
{
    const size_t page = 4096;
    if (static_cast<size_t>(::sysconf(_SC_PAGESIZE)) != page)
        GTEST_SKIP() << "the kernel page size is not 4 KiB";
    RealAddressSpace space;
    constexpr size_t capacity = 2 << 20;
    anchorage::SubHeap heap(space, capacity);
    const uint64_t base = heap.base();
    ASSERT_EQ(::madvise(reinterpret_cast<void *>(base), capacity,
                        MADV_NOHUGEPAGE),
              0);

    auto expect_matches_kernel = [&](const char *step) {
        std::vector<unsigned char> vec(capacity / page);
        ASSERT_EQ(::mincore(reinterpret_cast<void *>(base), capacity,
                            vec.data()),
                  0);
        size_t resident = 0;
        for (size_t i = 0; i < vec.size(); i++) {
            const bool kernel = (vec[i] & 1) != 0;
            resident += kernel ? 1 : 0;
            ASSERT_EQ(space.pages().isResident(base + i * page), kernel)
                << step << ": page " << i;
        }
        EXPECT_EQ(space.rss(), resident * page) << step;
    };

    expect_matches_kernel("fresh");

    // Sizes are multiples of the block alignment, so the bytes written
    // are exactly the bytes the allocator touched.
    Rng rng(4242);
    std::vector<uint64_t> blocks;
    size_t used = 0;
    while (used < capacity * 3 / 4) {
        const size_t size =
            rng.range(1, 400) * anchorage::SubHeap::alignment;
        const anchorage::SubHeapAlloc a =
            heap.alloc(static_cast<uint32_t>(blocks.size()), size);
        ASSERT_TRUE(a.ok);
        std::memset(space.raw(a.addr), 0x5a, size);
        blocks.push_back(a.addr);
        used += size;
    }
    expect_matches_kernel("allocated");
    const size_t allocated_rss = space.rss();
    EXPECT_GT(allocated_rss, 0u);
    EXPECT_LT(allocated_rss, capacity);

    // Free every third block and the whole last quarter, so the trim
    // has a multi-page tail to return and the middle keeps its holes.
    const size_t tail_from = blocks.size() * 3 / 4;
    for (size_t i = 0; i < blocks.size(); i++) {
        if (i % 3 == 0 || i >= tail_from)
            heap.free(blocks[i]);
    }
    expect_matches_kernel("freed");
    heap.coalesceHoles();
    ASSERT_GT(heap.trimTop(), 4 * page);
    expect_matches_kernel("trimmed");
    EXPECT_LT(space.rss(), allocated_rss);

    // Copy a live block into the discarded tail, straddling a page
    // boundary, so the copy's touch is the only thing making it
    // resident again.
    const uint64_t src = blocks[1];
    const uint64_t dst =
        (base + heap.extent() + 3 * page) / page * page - 100;
    space.copy(dst, src, 1000);
    EXPECT_EQ(std::memcmp(space.raw(dst), space.raw(src), 1000), 0);
    expect_matches_kernel("copied");
}

} // namespace
