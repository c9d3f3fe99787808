#include "checkpoint/macro_ckpt.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace indra::ckpt
{

MacroCheckpoint::MacroCheckpoint(const SystemConfig &cfg,
                                 mem::PhysicalMemory &phys_ref,
                                 mem::MemHierarchy &mem_ref,
                                 stats::StatGroup &parent)
    : config(cfg), phys(phys_ref), memsys(mem_ref),
      statGroup(parent, "macro_ckpt"),
      statCaptures(statGroup, "captures", "macro checkpoints taken"),
      statRestores(statGroup, "restores", "macro rollbacks performed"),
      statCaptureCycles(statGroup, "capture_cycles",
                        "cycles spent capturing"),
      statRestoreCycles(statGroup, "restore_cycles",
                        "cycles spent restoring"),
      statRestoreFailures(statGroup, "restore_failures",
                          "restores refused: missing or corrupt image"),
      statCorruptionDetected(statGroup, "corruption_detected",
                             "image corruption caught by checksum")
{
}

Cycles
MacroCheckpoint::capture(Tick tick, os::ProcessContext &ctx,
                         os::AddressSpace &space,
                         os::SystemResources &res)
{
    // Keep the previous image's pages: the same working set is
    // recaptured every interval, so a page whose frame is still the
    // copy it holds is not copied again, and a changed page reuses
    // its buffer.
    ++captureEpoch;
    const std::vector<Vpn> mapped = space.mappedPages();
    Cycles cost = 0;
    for (Vpn vpn : mapped) {
        const os::PageInfo &info = space.pageInfo(vpn);
        auto [it, fresh] = image.try_emplace(vpn);
        ImagePage &page = it->second;
        if (fresh && !spareBuffers.empty()) {
            page.bytes = std::move(spareBuffers.back());
            spareBuffers.pop_back();
        }
        std::uint64_t ver = phys.frameVersion(info.pfn);
        if (!page.holds(info.pfn, ver)) {
            phys.snapshotFrameInto(info.pfn, page.bytes);
            page.heldPfn = info.pfn;
            page.heldVersion = ver;
        }
        PageSeal &seal = sealCache[vpn];
        if (seal.pfn != info.pfn || seal.version != ver) {
            seal.pfn = info.pfn;
            seal.version = ver;
            seal.sum =
                faults::checksum32(page.bytes.data(), page.bytes.size());
        }
        page.sealedSum = seal.sum;
        page.liveSum = seal.sum;
        page.epoch = captureEpoch;
        // Software copy of a full page through the memory system.
        cost += memsys.pageTransfer(tick + cost, info.pfn, false);
    }
    // Pages unmapped since the previous capture are no longer in the
    // working set: drop them.
    if (image.size() != mapped.size()) {
        for (auto it = image.begin(); it != image.end();) {
            if (it->second.epoch != captureEpoch)
                it = image.erase(it);
            else
                ++it;
        }
    }
    // Buffers a smaller working set did not need are freed, not kept.
    spareBuffers.clear();
    // The page count is sealed before any injected damage, so a
    // truncated image is caught by the count check at restore time.
    expectedPages = image.size();
    contextSnap = ctx.snapshot();
    resourceSnap = res.snapshot();
    captured = true;
    ++statCaptures;
    statCaptureCycles += static_cast<double>(cost);
    INDRA_TRACE(traceLog, tick, obs::EventKind::MacroCapture,
                traceSource, expectedPages, cost);

    if (injector && !image.empty()) {
        // Deterministic page pick: sort the vpns so the choice does
        // not depend on hash-map iteration order.
        std::vector<Vpn> vpns;
        vpns.reserve(image.size());
        for (const auto &[vpn, page] : image)
            vpns.push_back(vpn);
        std::sort(vpns.begin(), vpns.end());
        if (injector->fire(faults::FaultKind::MacroCorrupt)) {
            Vpn victim = vpns[injector->pick(
                faults::FaultKind::MacroCorrupt,
                static_cast<std::uint32_t>(vpns.size()))];
            ImagePage &page = image.at(victim);
            auto &bytes = page.bytes;
            std::uint32_t bit = injector->pick(
                faults::FaultKind::MacroCorrupt,
                static_cast<std::uint32_t>(bytes.size() * 8));
            bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            // The image page changed after sealing: refresh its live
            // sum so the cached verify sees exactly the damage a full
            // re-hash would (FNV-1a maps a one-bit difference to a
            // different sum unconditionally), and stop treating it as
            // a copy of its frame.
            page.liveSum = faults::checksum32(bytes.data(), bytes.size());
            page.heldPfn = invalidPfn;
        }
        if (injector->fire(faults::FaultKind::MacroTruncate)) {
            Vpn victim = vpns[injector->pick(
                faults::FaultKind::MacroTruncate,
                static_cast<std::uint32_t>(vpns.size()))];
            image.erase(victim);
        }
    }
    return cost;
}

bool
MacroCheckpoint::verifyImage(Tick tick)
{
    std::uint64_t bad = 0;
    if (image.size() != expectedPages)
        ++bad;
    for (const auto &[vpn, page] : image) {
        if (page.liveSum != page.sealedSum)
            ++bad;
    }
    if (bad) {
        statCorruptionDetected += static_cast<double>(bad);
        INDRA_TRACE(traceLog, tick, obs::EventKind::CorruptionDetected,
                    traceSource, bad);
    }
    return bad == 0;
}

MacroRestoreResult
MacroCheckpoint::restore(Tick tick, os::ProcessContext &ctx,
                         os::AddressSpace &space,
                         os::SystemResources &res)
{
    if (!captured || !verifyImage(tick)) {
        // Missing, truncated, or corrupt image: refuse the restore
        // and leave every byte of process state alone. The caller
        // escalates (typically to full rejuvenation).
        ++statRestoreFailures;
        INDRA_TRACE(traceLog, tick, obs::EventKind::MacroRestore,
                    traceSource, 0, 0);
        return {false, 0};
    }
    Cycles cost = 0;

    // Resources first so heap pages mapped after the checkpoint are
    // reclaimed before the memory image is written back.
    res.restoreTo(resourceSnap, space);

    for (auto &[vpn, page] : image) {
        if (!space.isMapped(vpn))
            continue;  // page no longer exists (should not happen)
        const os::PageInfo &info = space.pageInfo(vpn);
        std::uint64_t ver = phys.frameVersion(info.pfn);
        // A frame still at the version the page was copied from (or
        // last written back to) already holds exactly these bytes.
        if (!page.holds(info.pfn, ver)) {
            phys.write(info.pfn, 0, page.bytes.data(),
                       static_cast<std::uint32_t>(page.bytes.size()));
            ver = phys.frameVersion(info.pfn);
            page.heldPfn = info.pfn;
            page.heldVersion = ver;
        }
        // The frame now holds exactly the sealed image bytes (the
        // image verified, so its live sum equals the seal), which
        // means the page's checksum at its current write version is
        // already known: refresh the memo so the next capture does
        // not re-hash pages only a rollback touched.
        sealCache[vpn] = {info.pfn, ver, page.sealedSum};
        // The simulated charge is the full page, copied or not.
        cost += memsys.pageTransfer(tick + cost, info.pfn, true);
    }
    ctx.restore(contextSnap);
    memsys.flushCaches();
    memsys.flushTlbs();
    ++statRestores;
    statRestoreCycles += static_cast<double>(cost);
    INDRA_TRACE(traceLog, tick, obs::EventKind::MacroRestore,
                traceSource, 1, cost);
    return {true, cost};
}

void
MacroCheckpoint::discard()
{
    captured = false;
    for (auto &[vpn, page] : image)
        spareBuffers.push_back(std::move(page.bytes));
    image.clear();
    expectedPages = 0;
}

bool
MacroCheckpoint::holdsFrame(Vpn vpn, Pfn pfn) const
{
    auto it = image.find(vpn);
    return it != image.end() &&
           it->second.holds(pfn, phys.frameVersion(pfn));
}

std::uint64_t
MacroCheckpoint::captures() const
{
    return static_cast<std::uint64_t>(statCaptures.value());
}

std::uint64_t
MacroCheckpoint::restores() const
{
    return static_cast<std::uint64_t>(statRestores.value());
}

std::uint64_t
MacroCheckpoint::restoreFailures() const
{
    return static_cast<std::uint64_t>(statRestoreFailures.value());
}

std::uint64_t
MacroCheckpoint::corruptionDetected() const
{
    return static_cast<std::uint64_t>(statCorruptionDetected.value());
}

} // namespace indra::ckpt
