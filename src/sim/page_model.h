/**
 * @file
 * Page-granular residency accounting.
 *
 * The paper measures defragmentation success as the process's resident
 * set size over time, sampled from the kernel. Sampling /proc from
 * inside unit tests is noisy and machine-dependent, so every allocator
 * in this repository routes its page-level effects (first touch,
 * MADV_DONTNEED, and Mesh-style page aliasing) through this model, which
 * produces exact, deterministic RSS numbers. Real-backed address spaces
 * additionally perform the matching mmap/madvise calls so the behaviour
 * stays honest.
 *
 * Thread safety: touch(), discard(), and the queries may be called
 * concurrently, and none of them takes a lock. The resident set is a
 * bitmap of atomic words keyed by frame index, held in a lazily built
 * radix (top -> mid -> 4 KiB leaf) whose nodes are installed by CAS.
 * Touching a page that is already resident is one relaxed load — no
 * lock and no atomic read-modify-write — which matters because every
 * placement and every moved object touches its pages, from every
 * Anchorage shard concurrently and from relocation campaigns that copy
 * outside any heap lock. A first touch is one fetch_or; a discard is
 * one fetch_and, issued only for bits that are set. A resident-page
 * counter changes only on those 0->1 and 1->0 transitions, so rss()
 * and residentPages() are O(1) and walk no container. While touches
 * and discards of the same pages race, the count may be off by the
 * pages of the calls in flight; it is clamped at zero, so it never
 * wraps, and it is exact once the racing calls have returned.
 *
 * alias()/unalias() are also safe to call concurrently with the other
 * operations: the alias map lives behind its own mutex, and the
 * no-alias fast path (the overwhelmingly common case — all modes
 * except meshing) stays a single relaxed-atomic load. A touch racing
 * an alias() may transiently keep the superseded frame resident; RSS
 * can briefly overcount by a page but never undercounts.
 *
 * The page size must be a power of two, and frame indices must fit the
 * radix (2^37 frames: 512 TiB of address space at 4 KiB pages);
 * violating either is fatal.
 */

#ifndef ALASKA_SIM_PAGE_MODEL_H
#define ALASKA_SIM_PAGE_MODEL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace alaska
{

/** Deterministic model of kernel page residency for a process. */
class PageModel
{
  public:
    explicit PageModel(size_t page_size = 4096);
    ~PageModel();

    PageModel(const PageModel &) = delete;
    PageModel &operator=(const PageModel &) = delete;

    /** Page size in bytes. */
    size_t pageSize() const { return pageSize_; }

    /** Mark every page overlapping [addr, addr+len) resident. */
    void touch(uint64_t addr, size_t len);

    /**
     * MADV_DONTNEED on [addr, addr+len): pages *fully contained* in the
     * range lose residency (partial edge pages stay, as in the kernel).
     */
    void discard(uint64_t addr, size_t len);

    /**
     * Mesh-style aliasing: virtual page vpage is remapped to the
     * physical frame backing target. vpage's own frame (if any) is
     * released; future touches of either virtual page land on the
     * shared frame. Safe to call concurrently with touch/discard/
     * queries (see the file comment for the transient-overcount
     * caveat); callers that need a pass to observe a consistent block
     * layout synchronize at a higher level (the mesh pass holds its
     * shard lock).
     */
    void alias(uint64_t vpage_addr, uint64_t target_page_addr);

    /**
     * Undo an alias: vpage gets back a private frame (itself) and that
     * frame becomes resident — the model of a copy-on-write split
     * fault, where the kernel materializes a private copy of the
     * shared frame on write. No-op if vpage is not aliased.
     */
    void unalias(uint64_t vpage_addr);

    /** Number of virtual pages currently aliased onto another frame. */
    size_t aliasedPages() const;

    /** Physical frame address backing the page containing addr. */
    uint64_t frameAddrOf(uint64_t addr) const
    {
        return frameOf(addr >> pageShift_) << pageShift_;
    }

    /** Resident bytes (distinct physical frames times page size). */
    size_t rss() const { return residentPages() << pageShift_; }

    /** Number of distinct resident physical frames. */
    size_t residentPages() const
    {
        const int64_t pages =
            residentPages_.load(std::memory_order_relaxed);
        return pages < 0 ? 0 : static_cast<size_t>(pages);
    }

    /** True iff the page containing addr is resident. */
    bool isResident(uint64_t addr) const;

    /** Forget everything. */
    void clear();

  private:
    /** Frame-index bits resolved by each radix level. */
    static constexpr unsigned leafBits = 15;
    static constexpr unsigned midBits = 11;
    static constexpr unsigned topBits = 11;
    /** Frame indices at or above 2^frameBits are out of range. */
    static constexpr unsigned frameBits = leafBits + midBits + topBits;

    /** Residency bits for 2^leafBits consecutive frames (4 KiB). */
    struct Leaf
    {
        std::atomic<uint64_t> words[(size_t{1} << leafBits) / 64];
    };

    struct Mid
    {
        std::atomic<Leaf *> leaves[size_t{1} << midBits];
    };

    /** Map a virtual page index to its physical frame index. */
    uint64_t frameOf(uint64_t vpage) const;

    /**
     * The leaf holding frame's bit. With create, missing nodes are
     * built and installed by CAS; without, returns nullptr where no
     * leaf exists (nothing in it was ever touched).
     */
    Leaf *leafOf(uint64_t frame, bool create) const;

    /** Mark frames [first, last] resident. */
    void setFrames(uint64_t first, uint64_t last);

    /** Release frames [first, end). */
    void clearFrames(uint64_t first, uint64_t end);

    using AliasMap = std::unordered_map<uint64_t, uint64_t>;

    // Read-mostly state every touch reads comes first; the counter
    // every first touch and discard writes gets a cache line of its
    // own, so its RMWs never invalidate the line touches load.
    size_t pageSize_;
    unsigned pageShift_;

    /**
     * Virtual page -> physical frame, for aliased pages only, guarded
     * by aliasMutex_. aliasCount_ mirrors aliases_.size() so frameOf()
     * can skip the lock entirely while no aliases exist — the touch
     * fast path every non-meshing mode runs stays one atomic load.
     */
    std::atomic<size_t> aliasCount_{0};

    mutable std::atomic<Mid *> top_[size_t{1} << topBits] = {};

    /** Set bits across all leaves; see the file comment. */
    alignas(64) std::atomic<int64_t> residentPages_{0};

    alignas(64) mutable std::mutex aliasMutex_;
    AliasMap aliases_;
};

} // namespace alaska

#endif // ALASKA_SIM_PAGE_MODEL_H
