#include "checkpoint/update_log.hh"

#include <algorithm>
#include <cstring>

namespace indra::ckpt
{

MemoryUpdateLog::MemoryUpdateLog(const SystemConfig &cfg,
                                 os::ProcessContext &context,
                                 os::AddressSpace &space,
                                 mem::PhysicalMemory &phys,
                                 mem::MemHierarchy &mem,
                                 stats::StatGroup &parent)
    : CheckpointPolicy(cfg, context, space, phys, mem, parent,
                       "ckpt_log"),
      statEntriesLogged(statGroup, "entries_logged",
                        "undo entries appended"),
      statEntriesUndone(statGroup, "entries_undone",
                        "undo entries replayed at recovery")
{
}

std::uint64_t
MemoryUpdateLog::entryChecksum(const UndoEntry &e)
{
    // Pack the payload fields into a contiguous buffer: struct
    // padding holds indeterminate bytes and must stay out of the
    // digest, as must the seal itself.
    std::uint8_t buf[20];
    std::memcpy(buf, &e.vaddr, 8);
    std::memcpy(buf + 8, &e.oldValue, 8);
    std::memcpy(buf + 16, &e.bytes, 4);
    return faults::checksum64(buf, sizeof(buf));
}

void
MemoryUpdateLog::sealEntry(UndoEntry &e)
{
    e.sum = entryChecksum(e);
    if (injector && injector->fire(faults::FaultKind::LogFlip)) {
        // Flip one bit of the stored old value: the undo record is
        // now lying about what the pre-store bytes were.
        std::uint32_t bit =
            injector->pick(faults::FaultKind::LogFlip, 64);
        e.oldValue ^= 1ULL << bit;
    }
}

Cycles
MemoryUpdateLog::onStore(Tick tick, Pid pid, Addr vaddr,
                         std::uint32_t bytes)
{
    (void)tick;
    if (pid != context.pid())
        return 0;
    Vpn vpn = geom.vpnOf(vaddr);
    if (!space.isMapped(vpn))
        return 0;

    UndoEntry e;
    e.vaddr = vaddr;
    e.bytes = std::min<std::uint32_t>(bytes, 8);
    std::uint32_t off = geom.pageOffset(vaddr);
    if (off + e.bytes > config.pageBytes)
        e.bytes = config.pageBytes - off;
    phys.read(space.pageInfo(vpn).pfn, off, &e.oldValue, e.bytes);
    sealEntry(e);
    log.push_back(e);
    ++statEntriesLogged;
    Cycles cost = config.logAppendCycles;
    // The log lives in memory: every filled log line streams out
    // through the hierarchy. The writes are posted (write-buffered),
    // so they cost the store stream nothing directly — but they do
    // occupy the L2/bus/DRAM and displace application lines, which
    // the ignored return value leaves behind as side effects.
    if (log.size() % entriesPerLine == 0) {
        constexpr Addr log_region = 1ULL << 42;
        (void)chargeLineTransfer(tick, log_region + logCursor, true);
        logCursor += config.backupLineBytes;
    }
    statBackupCycles += static_cast<double>(cost);
    return cost;
}

Cycles
MemoryUpdateLog::onRequestBegin(Tick tick)
{
    (void)tick;
    log.clear();
    return 0;
}

Cycles
MemoryUpdateLog::onFailure(Tick tick)
{
    (void)tick;
    ++statRollbacks;
    Cycles cost = 0;
    // Sequential backward undo: each record is one dependent memory
    // update on the recovery's critical path; the log lines
    // themselves are read back in from memory.
    std::uint64_t idx = log.size();
    for (auto it = log.rbegin(); it != log.rend(); ++it) {
        Vpn vpn = it->vaddr / config.pageBytes;
        if (entryChecksum(*it) != it->sum) {
            // A corrupt undo record is never replayed: applying a
            // forged old value would silently plant wrong bytes.
            ++statCorruptionDetected;
        } else if (space.isMapped(vpn)) {
            std::uint32_t off = static_cast<std::uint32_t>(
                it->vaddr % config.pageBytes);
            phys.write(space.pageInfo(vpn).pfn, off, &it->oldValue,
                       it->bytes);
        }
        ++statEntriesUndone;
        cost += config.logUndoCycles;
        if (--idx % entriesPerLine == 0) {
            constexpr Addr log_region = 1ULL << 42;
            cost += chargeLineTransfer(
                tick + cost,
                log_region + (idx / entriesPerLine) *
                    config.backupLineBytes,
                false);
        }
    }
    log.clear();
    logCursor = 0;
    statRecoveryCycles += static_cast<double>(cost);
    return cost;
}

bool
MemoryUpdateLog::verifyIntegrity(Tick tick)
{
    (void)tick;
    std::uint64_t bad = 0;
    for (const UndoEntry &e : log) {
        if (entryChecksum(e) != e.sum)
            ++bad;
    }
    if (bad)
        statCorruptionDetected += static_cast<double>(bad);
    return bad == 0;
}

} // namespace indra::ckpt
