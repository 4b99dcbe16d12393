#include "sim/page_model.h"

#include <algorithm>
#include <bit>

#include "base/logging.h"

namespace alaska
{

namespace
{

constexpr uint64_t bitsPerWord = 64;

/** Bits [bit, bit + count) of a word; count in [1, 64 - bit]. */
uint64_t
wordMask(uint64_t bit, uint64_t count)
{
    const uint64_t ones =
        count == bitsPerWord ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
    return ones << bit;
}

/** Load slot's node, building and installing one by CAS if absent. */
template <typename Node>
Node *
installed(std::atomic<Node *> &slot)
{
    Node *node = slot.load(std::memory_order_acquire);
    if (node != nullptr)
        return node;
    Node *fresh = new Node();
    if (slot.compare_exchange_strong(node, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire))
        return fresh;
    delete fresh; // another thread installed first; node holds theirs
    return node;
}

} // anonymous namespace

PageModel::PageModel(size_t page_size)
    : pageSize_(page_size),
      pageShift_(static_cast<unsigned>(std::countr_zero(page_size)))
{
    if (!std::has_single_bit(page_size))
        fatal("PageModel: page size %zu is not a power of two", page_size);
}

PageModel::~PageModel()
{
    for (std::atomic<Mid *> &top_slot : top_) {
        Mid *mid = top_slot.load(std::memory_order_relaxed);
        if (mid == nullptr)
            continue;
        for (std::atomic<Leaf *> &leaf : mid->leaves)
            delete leaf.load(std::memory_order_relaxed);
        delete mid;
    }
}

uint64_t
PageModel::frameOf(uint64_t vpage) const
{
    if (__builtin_expect(
            aliasCount_.load(std::memory_order_acquire) == 0, 1))
        return vpage;
    std::lock_guard<std::mutex> guard(aliasMutex_);
    auto it = aliases_.find(vpage);
    return it == aliases_.end() ? vpage : it->second;
}

PageModel::Leaf *
PageModel::leafOf(uint64_t frame, bool create) const
{
    std::atomic<Mid *> &top_slot = top_[frame >> (leafBits + midBits)];
    Mid *mid = create ? installed(top_slot)
                      : top_slot.load(std::memory_order_acquire);
    if (mid == nullptr)
        return nullptr;
    std::atomic<Leaf *> &mid_slot =
        mid->leaves[(frame >> leafBits) & ((uint64_t{1} << midBits) - 1)];
    return create ? installed(mid_slot)
                  : mid_slot.load(std::memory_order_acquire);
}

void
PageModel::setFrames(uint64_t first, uint64_t last)
{
    if (__builtin_expect(last >> frameBits != 0, 0))
        fatal("PageModel: frame %#llx is beyond the modelled range",
              static_cast<unsigned long long>(last));
    constexpr uint64_t leaf_frames = uint64_t{1} << leafBits;
    Leaf *leaf = nullptr;
    for (uint64_t frame = first;;) {
        if (leaf == nullptr || frame % leaf_frames == 0)
            leaf = leafOf(frame, true);
        const uint64_t bit = frame % bitsPerWord;
        const uint64_t count = std::min(bitsPerWord - bit, last - frame + 1);
        const uint64_t mask = wordMask(bit, count);
        std::atomic<uint64_t> &word =
            leaf->words[frame % leaf_frames / bitsPerWord];
        // Already resident (the common case): one relaxed load, no RMW.
        if ((word.load(std::memory_order_relaxed) & mask) != mask) {
            const uint64_t old =
                word.fetch_or(mask, std::memory_order_relaxed);
            const int added = std::popcount(mask & ~old);
            if (added != 0)
                residentPages_.fetch_add(added, std::memory_order_relaxed);
        }
        if (last - frame < count)
            return;
        frame += count;
    }
}

void
PageModel::clearFrames(uint64_t first, uint64_t end)
{
    // Nothing beyond the radix can have been touched.
    end = std::min(end, uint64_t{1} << frameBits);
    constexpr uint64_t leaf_frames = uint64_t{1} << leafBits;
    for (uint64_t frame = first; frame < end;) {
        const uint64_t leaf_end =
            std::min(end, (frame / leaf_frames + 1) * leaf_frames);
        Leaf *leaf = leafOf(frame, false);
        if (leaf == nullptr) {
            frame = leaf_end;
            continue;
        }
        while (frame < leaf_end) {
            const uint64_t bit = frame % bitsPerWord;
            const uint64_t count =
                std::min(bitsPerWord - bit, leaf_end - frame);
            const uint64_t mask = wordMask(bit, count);
            std::atomic<uint64_t> &word =
                leaf->words[frame % leaf_frames / bitsPerWord];
            if ((word.load(std::memory_order_relaxed) & mask) != 0) {
                const uint64_t old =
                    word.fetch_and(~mask, std::memory_order_relaxed);
                const int removed = std::popcount(mask & old);
                if (removed != 0)
                    residentPages_.fetch_sub(removed,
                                             std::memory_order_relaxed);
            }
            frame += count;
        }
    }
}

void
PageModel::touch(uint64_t addr, size_t len)
{
    if (len == 0)
        return;
    const uint64_t first = addr >> pageShift_;
    const uint64_t last = (addr + len - 1) >> pageShift_;
    if (__builtin_expect(
            aliasCount_.load(std::memory_order_acquire) == 0, 1)) {
        setFrames(first, last);
        return;
    }
    for (uint64_t p = first; p <= last; p++) {
        const uint64_t frame = frameOf(p);
        setFrames(frame, frame);
    }
}

void
PageModel::discard(uint64_t addr, size_t len)
{
    if (len < pageSize_)
        return;
    // Only pages fully inside the range are released.
    const uint64_t first = (addr + pageSize_ - 1) >> pageShift_;
    const uint64_t end = (addr + len) >> pageShift_;
    if (__builtin_expect(
            aliasCount_.load(std::memory_order_acquire) == 0, 1)) {
        clearFrames(first, end);
        return;
    }
    for (uint64_t p = first; p < end; p++) {
        const uint64_t frame = frameOf(p);
        clearFrames(frame, frame + 1);
    }
}

void
PageModel::alias(uint64_t vpage_addr, uint64_t target_page_addr)
{
    std::lock_guard<std::mutex> alias_guard(aliasMutex_);
    const uint64_t vpage = vpage_addr >> pageShift_;
    // Resolve the target under the lock so chained aliases collapse to
    // the root frame at insertion time.
    auto target_it = aliases_.find(target_page_addr >> pageShift_);
    const uint64_t target = target_it == aliases_.end()
                                ? target_page_addr >> pageShift_
                                : target_it->second;
    auto vpage_it = aliases_.find(vpage);
    const uint64_t old_frame =
        vpage_it == aliases_.end() ? vpage : vpage_it->second;
    if (old_frame == target)
        return;
    // Publish the mapping before releasing the old frame: a touch
    // racing this call then lands on the shared frame (or, pre-publish,
    // transiently re-sets the bit we are about to clear — an
    // overcount, never an undercount).
    aliases_[vpage] = target;
    aliasCount_.store(aliases_.size(), std::memory_order_release);
    clearFrames(old_frame, old_frame + 1);
}

void
PageModel::unalias(uint64_t vpage_addr)
{
    std::lock_guard<std::mutex> alias_guard(aliasMutex_);
    const uint64_t vpage = vpage_addr >> pageShift_;
    if (aliases_.erase(vpage) == 0)
        return;
    aliasCount_.store(aliases_.size(), std::memory_order_release);
    // The split fault's private copy is resident from birth.
    setFrames(vpage, vpage);
}

size_t
PageModel::aliasedPages() const
{
    return aliasCount_.load(std::memory_order_acquire);
}

bool
PageModel::isResident(uint64_t addr) const
{
    const uint64_t frame = frameOf(addr >> pageShift_);
    if (frame >> frameBits != 0)
        return false;
    const Leaf *leaf = leafOf(frame, false);
    if (leaf == nullptr)
        return false;
    const uint64_t word =
        leaf->words[frame % (uint64_t{1} << leafBits) / bitsPerWord].load(
            std::memory_order_relaxed);
    return (word >> (frame % bitsPerWord)) & 1;
}

void
PageModel::clear()
{
    std::lock_guard<std::mutex> alias_guard(aliasMutex_);
    for (std::atomic<Mid *> &top_slot : top_) {
        Mid *mid = top_slot.load(std::memory_order_acquire);
        if (mid == nullptr)
            continue;
        for (std::atomic<Leaf *> &leaf_slot : mid->leaves) {
            Leaf *leaf = leaf_slot.load(std::memory_order_acquire);
            if (leaf == nullptr)
                continue;
            for (std::atomic<uint64_t> &word : leaf->words)
                word.store(0, std::memory_order_relaxed);
        }
    }
    residentPages_.store(0, std::memory_order_relaxed);
    aliases_.clear();
    aliasCount_.store(0, std::memory_order_release);
}

} // namespace alaska
