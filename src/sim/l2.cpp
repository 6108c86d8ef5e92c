#include "sim/l2.hpp"

#include "sim/noc.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace gga {

Cycles
L2System::smPortDepart(std::uint32_t sm_id, Cycles extra)
{
    // Each L2 transaction consumes the SM's mesh port for the request and
    // (statistically) its response; three-party transfers cost more.
    Cycles& free = smPortFree_[sm_id];
    const Cycles depart = std::max(engine_.now(), free);
    free = depart + SimParams::nocPortInterval + extra;
    return depart;
}

std::uint32_t
L2System::bankOf(Addr line) const
{
    return static_cast<std::uint32_t>(
        hashMix64(line / SimParams::lineBytes) & (SimParams::l2Banks - 1));
}

Cycles
L2System::occupyBank(Bank& bank, Cycles arrival, Cycles interval)
{
    const Cycles start = std::max(arrival, bank.nextFree);
    bank.nextFree = start + interval;
    return start;
}

void
L2System::writeDirty(Bank& bank, Addr line, Cycles service_start)
{
    const SetAssocCache::Probe p = bank.tags.probe(line);
    if (p.way != SetAssocCache::kNoWay) {
        bank.tags.setStateAt(p.way, LineState::Dirty);
        return;
    }
    const SetAssocCache::Eviction ev =
        bank.tags.insertAt(p, line, LineState::Dirty);
    if (ev.state == LineState::Dirty)
        dram_.access(service_start + SimParams::l2BankLatency, ev.line,
                     /*is_write=*/true);
}

Cycles
L2System::dataReady(Bank& bank, Addr line, Cycles arrival,
                    Cycles service_start, LineState on_fill)
{
    const SetAssocCache::Probe p = bank.tags.probe(line);
    if (p.way != SetAssocCache::kNoWay) {
        bank.tags.touch(p.way);
        if (on_fill == LineState::Dirty)
            bank.tags.setStateAt(p.way, LineState::Dirty);
        return service_start + SimParams::l2BankLatency;
    }
    ++stats_.readMisses;
    // The DRAM fetch launches when the request reaches the bank's tag
    // pipeline, overlapping any queueing at serialized units; feeding a
    // future service time into the channel occupancy would make idle
    // channels look busy to unrelated requests.
    const Cycles fill = dram_.access(arrival + SimParams::l2BankLatency, line,
                                     /*is_write=*/false);
    const SetAssocCache::Eviction ev = bank.tags.insertAt(p, line, on_fill);
    if (ev.state == LineState::Dirty) {
        // The victim's data is already on hand; its write-back drains from
        // the write buffer starting now, not at the fill's future time.
        dram_.access(arrival + SimParams::l2BankLatency, ev.line,
                     /*is_write=*/true);
    }
    return std::max(fill, service_start) + SimParams::l2BankLatency;
}

void
L2System::read(std::uint32_t sm_id, Addr line, EventFn done)
{
    ++stats_.reads;
    const std::uint32_t b = bankOf(line);
    Bank& bank = banks_[b];
    const Cycles arrival = smPortDepart(sm_id) + meshLatency(sm_id, b);
    const Cycles start =
        occupyBank(bank, arrival, SimParams::l2ServiceInterval);

    Cycles data_at_bank;
    const std::uint32_t* owner = owner_.find(line);
    if (owner != nullptr && *owner != sm_id) {
        // Remote L1 owns the line: forward through the owner. Ownership is
        // unchanged by reads (DeNovo GetV).
        ++stats_.forwards;
        data_at_bank = start + SimParams::l2BankLatency +
                       meshLatency(b, *owner) + SimParams::l1HitLatency +
                       meshLatency(*owner, b);
    } else {
        data_at_bank = dataReady(bank, line, arrival, start,
                                 LineState::Valid);
    }
    const Cycles resp = data_at_bank + meshLatency(b, sm_id);
    stats_.readLagSum += resp - engine_.now();
    engine_.scheduleAt(resp, done);
}

void
L2System::write(std::uint32_t sm_id, Addr line, EventFn done)
{
    ++stats_.writes;
    const std::uint32_t b = bankOf(line);
    Bank& bank = banks_[b];
    const Cycles arrival = smPortDepart(sm_id) + meshLatency(sm_id, b);
    const Cycles start =
        occupyBank(bank, arrival, SimParams::l2ServiceInterval);

    // Full-line write-through: no fetch needed; allocate dirty.
    writeDirty(bank, line, start);
    const Cycles resp =
        start + SimParams::l2BankLatency + meshLatency(b, sm_id);
    engine_.scheduleAt(resp, done);
}

void
L2System::atomic(std::uint32_t sm_id, Addr word, EventFn done)
{
    ++stats_.atomics;
    const Addr line = lineOf(word);
    const std::uint32_t b = bankOf(line);
    Bank& bank = banks_[b];
    const Cycles arrival = smPortDepart(sm_id) + meshLatency(sm_id, b);
    // Atomics flow through a dedicated unit: they contend with each other
    // for its pipeline but do not block the bank's data port.
    const Cycles start = std::max(arrival, bank.atomicNextFree);
    bank.atomicNextFree = start + SimParams::atomicServiceInterval;
    const Cycles data = dataReady(bank, line, arrival, start,
                                  LineState::Dirty);

    // Per-word serialization at the atomic unit: same-address atomics
    // cannot overlap regardless of which warp issued them.
    Cycles& word_free = bank.wordNextFree[word];
    const Cycles exec = std::max(data, word_free);
    word_free = exec + SimParams::atomicServiceInterval;

    const Cycles resp = exec + SimParams::atomicServiceInterval +
                        meshLatency(b, sm_id);
    stats_.atomicLagSum += resp - engine_.now();
    engine_.scheduleAt(resp, done);
}

void
L2System::getOwnership(std::uint32_t sm_id, Addr line, EventFn done)
{
    ++stats_.getO;
    const std::uint32_t b = bankOf(line);
    Bank& bank = banks_[b];
    const Cycles arrival =
        smPortDepart(sm_id, /*extra=*/1) + meshLatency(sm_id, b);
    const Cycles start =
        occupyBank(bank, arrival, SimParams::directoryServiceInterval);

    // Handoffs of the same line serialize: ping-ponging ownership between
    // SMs costs a full transfer per hop of the ping-pong.
    Cycles& own_free = bank.ownershipNextFree[line];
    const Cycles svc = std::max(start, own_free);

    Cycles resp;
    const std::uint32_t* owner = owner_.find(line);
    if (owner != nullptr && *owner != sm_id) {
        ++stats_.forwards;
        const std::uint32_t prev_owner = *owner;
        // Invalidate the previous owner when the recall message lands.
        const Cycles recall_at =
            svc + SimParams::l2BankLatency + meshLatency(b, prev_owner);
        if (recall_)
            engine_.scheduleAt(recall_at,
                               [this, prev_owner, line] {
                                   recall_(prev_owner, line);
                               });
        resp = recall_at + SimParams::l1HitLatency +
               meshLatency(prev_owner, sm_id);
    } else if (owner != nullptr) {
        // Re-registration by the same SM (e.g. after a local race); ack.
        resp = svc + SimParams::l2BankLatency + meshLatency(b, sm_id);
    } else {
        const Cycles data =
            dataReady(bank, line, arrival, svc, LineState::Valid);
        resp = data + meshLatency(b, sm_id);
    }
    own_free = resp;
    owner_[line] = sm_id;
    engine_.scheduleAt(resp, done);
}

void
L2System::releaseOwnership(std::uint32_t sm_id, Addr line)
{
    const std::uint32_t* owner = owner_.find(line);
    if (owner == nullptr || *owner != sm_id)
        return; // already recalled or transferred
    owner_.erase(line);
    ++stats_.ownerWritebacks;

    const std::uint32_t b = bankOf(line);
    Bank& bank = banks_[b];
    const Cycles arrival = smPortDepart(sm_id) + meshLatency(sm_id, b);
    const Cycles start =
        occupyBank(bank, arrival, SimParams::l2ServiceInterval);
    writeDirty(bank, line, start);
}

std::optional<std::uint32_t>
L2System::ownerOf(Addr line) const
{
    const std::uint32_t* owner = owner_.find(line);
    if (owner == nullptr)
        return std::nullopt;
    return *owner;
}

void
L2System::beginKernel()
{
    // Serialization windows are short; dropping them between kernels keeps
    // the maps bounded without measurable timing impact.
    for (Bank& b : banks_) {
        b.wordNextFree.clear();
        b.ownershipNextFree.clear();
    }
}

} // namespace gga
