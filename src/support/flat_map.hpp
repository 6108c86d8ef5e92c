/**
 * @file
 * FlatMap/FlatSet: open-addressing hash containers for hot paths — the
 * simulator's MSHR tables, the L2 ownership directory, per-word
 * serialization windows, and the graph generator's pair-membership set.
 * Replaces std::unordered_map/set where per-operation node allocation
 * and pointer chasing dominate: storage is flat arrays (control bytes +
 * slots), probing is linear, and clear() keeps capacity so resets are
 * allocation-free. FlatSet is a FlatMap whose value is the empty
 * NoValue, so one core serves both and a valueless slot is just its key.
 *
 * Deliberately minimal: no iterators and no pointer stability —
 * pointers returned by find()/operator[]/tryEmplace() are invalidated by
 * any insertion or erasure (erase shifts entries back). None of the call
 * sites iterate, so replacing the std containers cannot change observable
 * behavior.
 */

#ifndef GGA_SUPPORT_FLAT_MAP_HPP
#define GGA_SUPPORT_FLAT_MAP_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace gga {

/** Default FlatMap hash: mix the key's bits (identity hashes cluster). */
template <typename K>
struct FlatHash
{
    std::size_t
    operator()(const K& k) const
    {
        static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                      "provide a custom hash for non-integral keys");
        return static_cast<std::size_t>(
            hashMix64(static_cast<std::uint64_t>(k)));
    }
};

/**
 * Open-addressing hash map with backward-shift deletion. K must be
 * integral (or provide a custom Hash); V must be default-constructible
 * and move-assignable (move-only types are fine).
 *
 * Erase closes the hole it leaves by shifting later members of the probe
 * run back, so the table never holds tombstones: a table that churns at
 * a steady size (an MSHR file) keeps its capacity forever instead of
 * rehashing to purge deleted slots.
 */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
  public:
    FlatMap() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Slots allocated (0 before the first insert or reserve). */
    std::size_t capacity() const { return ctrl_.size(); }

    bool contains(const K& key) const { return findSlot(key) != kNoSlot; }

    /** Value pointer, or nullptr when absent. Invalidated by inserts and
     *  erases. */
    V*
    find(const K& key)
    {
        const std::size_t i = findSlot(key);
        return i == kNoSlot ? nullptr : &slots_[i].val;
    }

    const V*
    find(const K& key) const
    {
        return const_cast<FlatMap*>(this)->find(key);
    }

    /**
     * The value for @p key and whether it was just inserted
     * (default-constructed), in one probe. The pointer is invalidated by
     * any later insert or erase.
     */
    std::pair<V*, bool>
    tryEmplace(const K& key)
    {
        reserveForOne();
        std::size_t i = probeStart(key);
        while (ctrl_[i] == kFull) {
            if (slots_[i].key == key)
                return {&slots_[i].val, false};
            i = (i + 1) & mask();
        }
        ctrl_[i] = kFull;
        slots_[i].key = key;
        slots_[i].val = V{};
        ++size_;
        return {&slots_[i].val, true};
    }

    /** Value for @p key, default-constructed and inserted when absent. */
    V& operator[](const K& key) { return *tryEmplace(key).first; }

    /** Remove @p key; returns whether it was present. Keeps capacity. */
    bool
    erase(const K& key)
    {
        const std::size_t i = findSlot(key);
        if (i == kNoSlot)
            return false;
        eraseAt(i);
        return true;
    }

    /**
     * Move @p key's value into @p out and remove the entry, in one probe.
     * Returns false (leaving @p out untouched) when @p key is absent.
     */
    bool
    take(const K& key, V& out)
    {
        const std::size_t i = findSlot(key);
        if (i == kNoSlot)
            return false;
        out = std::move(slots_[i].val);
        eraseAt(i);
        return true;
    }

    /** Drop all entries but keep the table's capacity. */
    void
    clear()
    {
        if constexpr (!std::is_trivially_destructible_v<V>) {
            for (std::size_t i = 0; i < ctrl_.size(); ++i) {
                if (ctrl_[i] == kFull)
                    slots_[i].val = V{};
            }
        }
        std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
        size_ = 0;
    }

    /** Pre-size the table for @p n entries without rehash churn. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = kMinCapacity;
        while (cap * 3 < n * 4) // target load factor <= 3/4
            cap *= 2;
        if (cap > ctrl_.size())
            rehash(cap);
    }

  private:
    struct Slot
    {
        K key{};
        [[no_unique_address]] V val{};
    };
    static_assert(!std::is_empty_v<V> || sizeof(Slot) == sizeof(K),
                  "a valueless slot must hold only its key");

    static constexpr std::uint8_t kEmpty = 0;
    static constexpr std::uint8_t kFull = 1;
    static constexpr std::size_t kMinCapacity = 16;
    static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

    std::size_t mask() const { return ctrl_.size() - 1; }

    std::size_t
    probeStart(const K& key) const
    {
        return Hash{}(key) & mask();
    }

    /** Slot holding @p key, or kNoSlot. */
    std::size_t
    findSlot(const K& key) const
    {
        if (ctrl_.empty())
            return kNoSlot;
        std::size_t i = probeStart(key);
        while (ctrl_[i] == kFull) {
            if (slots_[i].key == key)
                return i;
            i = (i + 1) & mask();
        }
        return kNoSlot;
    }

    /**
     * Empty slot @p i by backward shift: walk the rest of its probe run
     * and move back every entry whose home slot does not lie cyclically
     * inside (hole, j], so each remaining key stays reachable from its
     * home without crossing an empty slot.
     */
    void
    eraseAt(std::size_t i)
    {
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & mask(); ctrl_[j] == kFull;
             j = (j + 1) & mask()) {
            const std::size_t home = probeStart(slots_[j].key);
            if (((j - home) & mask()) >= ((j - hole) & mask())) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        ctrl_[hole] = kEmpty;
        slots_[hole].val = V{}; // release held resources now
        --size_;
    }

    /** Double the table when one more insert would pass load 3/4. */
    void
    reserveForOne()
    {
        if (ctrl_.empty())
            rehash(kMinCapacity);
        else if ((size_ + 1) * 4 > ctrl_.size() * 3)
            rehash(ctrl_.size() * 2);
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
        std::vector<Slot> old_slots = std::move(slots_);
        ctrl_.assign(new_cap, kEmpty);
        slots_.clear();
        slots_.resize(new_cap);
        for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
            if (old_ctrl[i] != kFull)
                continue;
            std::size_t j = probeStart(old_slots[i].key);
            while (ctrl_[j] == kFull)
                j = (j + 1) & mask();
            ctrl_[j] = kFull;
            slots_[j].key = old_slots[i].key;
            slots_[j].val = std::move(old_slots[i].val);
        }
    }

    std::vector<std::uint8_t> ctrl_;
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

/** FlatSet's value: empty, so its slots hold the key alone. */
struct NoValue
{
};

/**
 * Open-addressing hash set, a FlatMap of NoValue. Backs the graph
 * generator's pair-membership tests, where the std::unordered_set node
 * allocations dominated synthesis time.
 */
template <typename K, typename Hash = FlatHash<K>>
class FlatSet
{
  public:
    std::size_t size() const { return map_.size(); }
    std::size_t capacity() const { return map_.capacity(); }
    bool contains(const K& key) const { return map_.contains(key); }
    /** Insert @p key; returns whether it was newly added. */
    bool insert(const K& key) { return map_.tryEmplace(key).second; }
    bool erase(const K& key) { return map_.erase(key); }
    void reserve(std::size_t n) { map_.reserve(n); }

  private:
    FlatMap<K, NoValue, Hash> map_;
};

} // namespace gga

#endif // GGA_SUPPORT_FLAT_MAP_HPP
