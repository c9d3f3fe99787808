#include "checkpoint/delta_backup.hh"

#include <bit>

#include "sim/logging.hh"

namespace indra::ckpt
{

DeltaBackup::DeltaBackup(const SystemConfig &cfg,
                         os::ProcessContext &context,
                         os::AddressSpace &space,
                         mem::PhysicalMemory &phys,
                         mem::MemHierarchy &mem,
                         stats::StatGroup &parent)
    : DeltaBackup(cfg, context, space, phys, mem, parent, "ckpt_delta")
{
}

DeltaBackup::DeltaBackup(const SystemConfig &cfg,
                         os::ProcessContext &context,
                         os::AddressSpace &space,
                         mem::PhysicalMemory &phys,
                         mem::MemHierarchy &mem,
                         stats::StatGroup &parent,
                         const char *group_name)
    : CheckpointPolicy(cfg, context, space, phys, mem, parent,
                       group_name),
      statRecordsAllocated(statGroup, "records_allocated",
                           "backup page records created"),
      statLazyLineRecoveries(statGroup, "lazy_line_recoveries",
                             "lines restored on demand at read"),
      statSupersededLines(statGroup, "superseded_lines",
                          "pending rollbacks superseded by a write"),
      statDirtyLineRatio(statGroup, "dirty_line_ratio",
                         "backed-up lines / lines of touched pages, "
                         "per request"),
      statPagesPerRequest(statGroup, "pages_per_request",
                          "pages touched per request")
{
    lineBuf.resize(config.backupLineBytes);
}

DeltaBackup::~DeltaBackup()
{
    for (auto &[vpn, rec] : records) {
        if (rec.backupPfn != invalidPfn)
            phys.freeFrame(rec.backupPfn);
    }
}

const BackupPageRecord *
DeltaBackup::record(Vpn vpn) const
{
    auto it = records.find(vpn);
    return it == records.end() ? nullptr : &it->second;
}

std::uint64_t
DeltaBackup::backupPagesAllocated() const
{
    std::uint64_t n = 0;
    for (const auto &[vpn, rec] : records) {
        if (rec.backupPfn != invalidPfn)
            ++n;
    }
    return n;
}

std::uint64_t
DeltaBackup::pagesTouchedThisEpoch() const
{
    return touchedThisEpoch.size();
}

std::uint64_t
DeltaBackup::linesBackedUpThisEpoch() const
{
    return epochLinesBackedUp;
}

std::uint32_t
DeltaBackup::lineChecksum(Pfn pfn, std::uint32_t off) const
{
    phys.read(pfn, off, lineBuf.data(), config.backupLineBytes);
    return faults::checksum32(lineBuf.data(), lineBuf.size());
}

void
DeltaBackup::sealBackupLine(BackupPageRecord &rec, std::uint32_t line)
{
    std::uint32_t off = line * config.backupLineBytes;
    std::uint32_t sum = lineChecksum(rec.backupPfn, off);
    rec.lineSums[line] = sum;
    if (injector && injector->fire(faults::FaultKind::DeltaFlip)) {
        std::uint32_t bit = injector->pick(faults::FaultKind::DeltaFlip,
                                           config.backupLineBytes * 8);
        std::uint8_t byte;
        phys.read(rec.backupPfn, off + bit / 8, &byte, 1);
        byte ^= static_cast<std::uint8_t>(1u << (bit % 8));
        phys.write(rec.backupPfn, off + bit / 8, &byte, 1);
        // The flip changed the backup bytes after the seal; recompute
        // the live sum from the damaged content so the cached compare
        // reports exactly what a full re-hash would.
        sum = lineChecksum(rec.backupPfn, off);
    }
    rec.liveSums[line] = sum;
}

bool
DeltaBackup::lineIntact(const BackupPageRecord &rec,
                        std::uint32_t line) const
{
    // sealBackupLine maintains liveSums on every backup write, so the
    // intactness test is a pure integer compare. FNV-1a's byte steps
    // are bijective in the running hash, so any injected single-bit
    // flip is guaranteed (not just probabilistically likely) to make
    // the two sums differ — detection outcomes are identical to
    // re-hashing the line on every check.
    return rec.liveSums[line] == rec.lineSums[line];
}

BackupPageRecord &
DeltaBackup::recordFor(Vpn vpn, Tick tick, Cycles &cost)
{
    (void)tick;
    BackupPageRecord *found = findRecord(vpn);
    if (!found) {
        BackupPageRecord rec;
        rec.dirtyBv = LineBitVector(linesPerPage());
        rec.rollbackBv = LineBitVector(linesPerPage());
        rec.lineSums.assign(linesPerPage(), 0);
        rec.liveSums.assign(linesPerPage(), 0);
        rec.lts = 0;
        found = &records.emplace(vpn, std::move(rec)).first->second;
        memo.fill(vpn, found);
        ++statRecordsAllocated;
    }
    // The record rides in the extended TLB entry (Figure 3); a D-TLB
    // miss pays an extra fetch from the backup page table.
    if (!memsys.dTlb().contains(context.pid(), vpn))
        cost += config.backupRecordFetchCycles;
    return *found;
}

Cycles
DeltaBackup::onStore(Tick tick, Pid pid, Addr vaddr, std::uint32_t bytes)
{
    if (pid != context.pid())
        return 0;
    Vpn vpn = vaddr / config.pageBytes;
    const os::PageInfo *mapped = space.findPage(vpn);
    if (!mapped)
        return 0;
    const os::PageInfo &page = *mapped;

    Cycles cost = 0;
    BackupPageRecord &rec = recordFor(vpn, tick, cost);
    std::uint64_t gts = context.gts();

    // New epoch for this page: clear the dirty bitvector lazily
    // (Figure 4, "GTS > LTS(p)" branch).
    if (gts > rec.lts) {
        rec.dirtyBv.clearAll();
        rec.lts = gts;
    }
    if (rec.touchStamp != touchEpoch) {
        rec.touchStamp = touchEpoch;
        touchedThisEpoch.insert(vpn);
    }

    std::uint32_t page_off =
        static_cast<std::uint32_t>(vaddr % config.pageBytes);
    std::uint32_t first_line = page_off / config.backupLineBytes;
    std::uint32_t last_line =
        (page_off + bytes - 1) / config.backupLineBytes;
    if (last_line >= linesPerPage())
        last_line = linesPerPage() - 1;

    for (std::uint32_t line = first_line; line <= last_line; ++line) {
        if (rec.dirtyBv.test(line))
            continue;  // already backed up this epoch: write through

        if (rec.backupPfn == invalidPfn) {
            // "Raise exception - allocate a new backup page" (Fig. 4).
            rec.backupPfn = phys.allocFrame();
            rec.rollbackBv.clearAll();
            rec.rollbackVld = false;
            cost += config.backupPageAllocCycles;
        }

        std::uint32_t off = line * config.backupLineBytes;
        if (rec.rollbackVld && rec.rollbackBv.test(line)) {
            // The line is pending rollback: the backup page already
            // holds the pre-fault value. Restore the line first so a
            // sub-line write lands on recovered bytes, then let the
            // write supersede the rollback. A corrupt backup copy is
            // never applied: the current line survives and is resealed
            // as the new reference value.
            if (lineIntact(rec, line)) {
                copyLine(page.pfn, off, rec.backupPfn, off);
            } else {
                ++statCorruptionDetected;
                copyLine(rec.backupPfn, off, page.pfn, off);
            }
            rec.rollbackBv.clear(line);
            if (!rec.rollbackBv.any())
                rec.rollbackVld = false;
            rec.dirtyBv.set(line);
            sealBackupLine(rec, line);
            ++statSupersededLines;
            cost += chargeLineTransfer(
                tick + cost, memsys.backupAddr(rec.backupPfn, off),
                false);
        } else {
            // Copy the original line into the backup page.
            copyLine(rec.backupPfn, off, page.pfn, off);
            rec.dirtyBv.set(line);
            sealBackupLine(rec, line);
            ++statLinesBackedUp;
            ++epochLinesBackedUp;
            cost += chargeLineTransfer(
                tick + cost,
                alignDown(vaddr, config.backupLineBytes), false);
            cost += chargeLineTransfer(
                tick + cost, memsys.backupAddr(rec.backupPfn, off),
                true);
        }
    }
    if (cost)
        statBackupCycles += static_cast<double>(cost);
    return cost;
}

Cycles
DeltaBackup::onLoad(Tick tick, Pid pid, Addr vaddr, std::uint32_t bytes)
{
    // armedRecords holds every record with a rollback pending, so with
    // none armed no load can have a line to recover.
    if (armedRecords.empty() || pid != context.pid())
        return 0;
    Vpn vpn = vaddr / config.pageBytes;
    BackupPageRecord *found = findRecord(vpn);
    if (!found || !found->rollbackVld)
        return 0;
    const os::PageInfo *mapped = space.findPage(vpn);
    if (!mapped)
        return 0;

    BackupPageRecord &rec = *found;
    const os::PageInfo &page = *mapped;
    Cycles cost = 0;
    if (!memsys.dTlb().contains(context.pid(), vpn))
        cost += config.backupRecordFetchCycles;

    std::uint32_t page_off =
        static_cast<std::uint32_t>(vaddr % config.pageBytes);
    std::uint32_t first_line = page_off / config.backupLineBytes;
    std::uint32_t last_line =
        (page_off + bytes - 1) / config.backupLineBytes;
    if (last_line >= linesPerPage())
        last_line = linesPerPage() - 1;

    // Figure 5: serve the read from the backup line and recover the
    // active line on the way. Every line of a line-crossing load
    // charges its active-line write to the load's first line.
    Addr first_line_addr = alignDown(vaddr, config.backupLineBytes);
    for (std::uint32_t line = first_line; line <= last_line; ++line) {
        if (rec.rollbackBv.test(line))
            cost += rollbackLine(rec, page.pfn, line, tick + cost,
                                 first_line_addr);
    }
    if (!rec.rollbackBv.any())
        rec.rollbackVld = false;
    if (cost)
        statRecoveryCycles += static_cast<double>(cost);
    return cost;
}

Cycles
DeltaBackup::rollbackLine(BackupPageRecord &rec, Pfn pfn,
                          std::uint32_t line, Tick tick, Addr active_addr)
{
    rec.rollbackBv.clear(line);
    if (!lineIntact(rec, line)) {
        ++statCorruptionDetected;
        return 0;
    }
    std::uint32_t off = line * config.backupLineBytes;
    copyLine(pfn, off, rec.backupPfn, off);
    ++statLazyLineRecoveries;
    Cycles cost = chargeLineTransfer(
        tick, memsys.backupAddr(rec.backupPfn, off), false);
    cost += chargeLineTransfer(tick + cost, active_addr, true);
    return cost;
}

Cycles
DeltaBackup::onRequestBegin(Tick tick)
{
    (void)tick;
    // The previous request completed: sample the Figure 15 metric.
    if (!touchedThisEpoch.empty()) {
        double pages = static_cast<double>(touchedThisEpoch.size());
        double total_lines = pages * linesPerPage();
        statPagesPerRequest.sample(pages);
        statDirtyLineRatio.sample(epochLinesBackedUp / total_lines);
    }
    newTouchEpoch();
    epochLinesBackedUp = 0;
    return 0;
}

Cycles
DeltaBackup::onFailure(Tick tick)
{
    ++statRollbacks;
    Cycles cost = 0;
    std::uint64_t armed_pages = 0;
    std::uint64_t gts = context.gts();
    for (Vpn vpn : touchedThisEpoch) {
        auto it = records.find(vpn);
        if (it == records.end())
            continue;
        BackupPageRecord &rec = it->second;
        if (rec.lts != gts || !rec.dirtyBv.any())
            continue;
        // Figure 6: RollbackBV |= DirtyBV, clear DirtyBV — no copying.
        rec.rollbackBv.orWith(rec.dirtyBv);
        rec.dirtyBv.clearAll();
        rec.rollbackVld = true;
        if (!rec.armedListed) {
            rec.armedListed = true;
            armedRecords.push_back(&rec);
        }
        ++armed_pages;
        cost += config.rollbackArmCycles;
    }
    INDRA_TRACE(traceLog, tick, obs::EventKind::RollbackArmed,
                traceSource, armed_pages, cost);
    // The failed request's backup activity is accounted to it.
    if (!touchedThisEpoch.empty()) {
        double pages = static_cast<double>(touchedThisEpoch.size());
        statPagesPerRequest.sample(pages);
        statDirtyLineRatio.sample(epochLinesBackedUp /
                                  (pages * linesPerPage()));
    }
    newTouchEpoch();
    epochLinesBackedUp = 0;
    statRecoveryCycles += static_cast<double>(cost);
    return cost;
}

std::uint64_t
DeltaBackup::corruptLines(const BackupPageRecord &rec, bool pending,
                          bool armed) const
{
    // Build the consumed set a 64-line word at a time and skip clear
    // words.
    std::uint64_t bad = 0;
    const auto &rb = rec.rollbackBv.rawWords();
    const auto &db = rec.dirtyBv.rawWords();
    for (std::size_t w = 0; w < rb.size(); ++w) {
        std::uint64_t mask = (pending ? rb[w] : 0) | (armed ? db[w] : 0);
        while (mask) {
            auto line = static_cast<std::uint32_t>(
                w * 64 + static_cast<unsigned>(std::countr_zero(mask)));
            mask &= mask - 1;
            if (!lineIntact(rec, line))
                ++bad;
        }
    }
    return bad;
}

bool
DeltaBackup::verifyIntegrity(Tick tick)
{
    // A micro recovery consumes lines already pending rollback plus
    // this epoch's dirty lines (armed by onFailure). Only armed records
    // can have the first, and only this epoch's touched pages the
    // second, so those two lists are all the walk visits.
    std::uint64_t bad = 0;
    const std::uint64_t gts = context.gts();
    std::size_t kept = 0;
    for (BackupPageRecord *rec : armedRecords) {
        if (!rec->rollbackVld) {
            rec->armedListed = false;
            continue;
        }
        armedRecords[kept++] = rec;
        bad += corruptLines(*rec, true, rec->lts == gts);
    }
    armedRecords.resize(kept);
    for (Vpn vpn : touchedThisEpoch) {
        const BackupPageRecord &rec = records.find(vpn)->second;
        // Records with a pending rollback were counted above.
        if (!rec.rollbackVld && rec.lts == gts)
            bad += corruptLines(rec, false, true);
    }
    if (bad) {
        statCorruptionDetected += static_cast<double>(bad);
        INDRA_TRACE(traceLog, tick, obs::EventKind::CorruptionDetected,
                    traceSource, bad);
    }
    return bad == 0;
}

void
DeltaBackup::invalidate()
{
    for (auto &[vpn, rec] : records) {
        rec.dirtyBv.clearAll();
        rec.rollbackBv.clearAll();
        rec.rollbackVld = false;
        rec.lts = 0;
        rec.armedListed = false;
    }
    armedRecords.clear();
    newTouchEpoch();
    epochLinesBackedUp = 0;
}

Cycles
DeltaBackup::drainRollback(Tick tick)
{
    Cycles cost = 0;
    for (auto &[vpn, rec] : records) {
        if (!rec.rollbackVld || !space.isMapped(vpn))
            continue;
        const os::PageInfo &page = space.pageInfo(vpn);
        for (std::uint32_t line = 0; line < linesPerPage(); ++line) {
            if (rec.rollbackBv.test(line))
                cost += rollbackLine(
                    rec, page.pfn, line, tick + cost,
                    memsys.backupAddr(page.pfn,
                                      line * config.backupLineBytes));
        }
        rec.rollbackVld = false;
    }
    statRecoveryCycles += static_cast<double>(cost);
    return cost;
}

} // namespace indra::ckpt
