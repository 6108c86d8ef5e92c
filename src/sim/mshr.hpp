/**
 * @file
 * Miss Status Holding Registers: outstanding line fills with waiter
 * merging. A full table back-pressures the core (Data stalls).
 *
 * Hot-path storage: entries live in an open-addressing FlatMap (no
 * per-miss node allocation), and each entry's waiters are parked on the
 * Engine's event nodes as an Engine::WaitList — an entry is just its fill
 * kind and a list head, so steady-state misses allocate nothing and a
 * completed fill hands its waiters to Engine::runAll without copying.
 */

#ifndef GGA_SIM_MSHR_HPP
#define GGA_SIM_MSHR_HPP

#include <cstdint>
#include <utility>

#include "sim/engine.hpp"
#include "support/flat_map.hpp"
#include "support/types.hpp"

namespace gga {

/** What an in-flight fill will deliver. */
enum class FillKind : std::uint8_t
{
    Data,      ///< GetV: a readable copy
    Ownership, ///< GetO: a registered, writable copy (DeNovo)
};

/** Result of trying to attach a waiter to a line fill. */
enum class MshrAdd : std::uint8_t
{
    NewEntry, ///< allocated; the caller must start the actual fill
    Merged,   ///< attached to a compatible in-flight fill
    Conflict, ///< in-flight fill is weaker than required; retry later
};

/** Outstanding-miss table keyed by line address. */
class MshrTable
{
  public:
    MshrTable(Engine& engine, std::uint32_t capacity)
        : engine_(engine), capacity_(capacity)
    {
        entries_.reserve(capacity);
    }

    bool full() const { return entries_.size() >= capacity_; }

    bool isPending(Addr line) const { return entries_.contains(line); }

    std::size_t inFlight() const { return entries_.size(); }

    /**
     * Register @p waiter for the fill of @p line requiring @p kind.
     *
     * A Data request merges with any in-flight fill; an Ownership request
     * merges only with an Ownership fill (a Data fill in flight yields
     * Conflict — the caller retries once it lands).
     */
    MshrAdd
    addWaiter(Addr line, FillKind kind, EventFn waiter)
    {
        if (Entry* e = entries_.find(line)) {
            if (kind == FillKind::Ownership && e->kind == FillKind::Data)
                return MshrAdd::Conflict;
            engine_.park(e->waiters, waiter);
            return MshrAdd::Merged;
        }
        Entry& e = entries_[line];
        e.kind = kind;
        engine_.park(e.waiters, waiter);
        return MshrAdd::NewEntry;
    }

    /**
     * Attach @p fn to the in-flight fill of @p line regardless of its
     * kind: used to re-try ownership upgrades once a weaker data fill
     * lands. The line must be pending.
     */
    void
    addRetryOnFill(Addr line, EventFn fn)
    {
        if (Entry* e = entries_.find(line))
            engine_.park(e->waiters, fn);
        else
            fn(); // fill already landed; retry immediately
    }

    /**
     * Complete the fill of @p line: remove the entry and return its
     * waiters, in arrival order, for Engine::runAll. Empty if the line
     * is not pending.
     */
    Engine::WaitList
    complete(Addr line)
    {
        Entry* e = entries_.find(line);
        if (e == nullptr)
            return {};
        Engine::WaitList waiters = std::move(e->waiters);
        entries_.erase(line);
        return waiters;
    }

  private:
    struct Entry
    {
        FillKind kind = FillKind::Data;
        Engine::WaitList waiters;
    };

    Engine& engine_;
    FlatMap<Addr, Entry> entries_;
    std::uint32_t capacity_;
};

} // namespace gga

#endif // GGA_SIM_MSHR_HPP
