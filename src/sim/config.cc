#include "sim/config.hh"

#include "sim/logging.hh"

namespace indra
{

const char *
checkpointSchemeName(CheckpointScheme s)
{
    switch (s) {
      case CheckpointScheme::None:
        return "none";
      case CheckpointScheme::DeltaBackup:
        return "delta-backup";
      case CheckpointScheme::VirtualCheckpoint:
        return "virtual-checkpoint";
      case CheckpointScheme::MemoryUpdateLog:
        return "memory-update-log";
      case CheckpointScheme::SoftwareCheckpoint:
        return "software-checkpoint";
      case CheckpointScheme::DomainRewind:
        return "domain-rewind";
    }
    return "unknown";
}

namespace
{

void
validateCache(const CacheConfig &c, std::uint32_t page_bytes)
{
    fatal_if(!isPowerOf2(c.sizeBytes), c.name, ": size not a power of 2");
    fatal_if(!isPowerOf2(c.lineBytes), c.name, ": line not a power of 2");
    fatal_if(c.associativity == 0, c.name, ": zero associativity");
    fatal_if(c.numLines() % c.associativity != 0,
             c.name, ": lines not divisible by associativity");
    fatal_if(!isPowerOf2(c.numSets()), c.name,
             ": set count not a power of 2");
    fatal_if(c.lineBytes > page_bytes, c.name, ": line larger than a page");
}

} // anonymous namespace

PageGeometry::PageGeometry(const SystemConfig &cfg)
    : pageShift(floorLog2(cfg.pageBytes)),
      lineShift(floorLog2(cfg.backupLineBytes)),
      pageMask(Addr{cfg.pageBytes} - 1)
{
    panic_if(!isPowerOf2(cfg.pageBytes) ||
                 !isPowerOf2(cfg.backupLineBytes) ||
                 cfg.backupLineBytes > cfg.pageBytes,
             "page geometry needs power-of-2 sizes, line <= page");
}

void
SystemConfig::validate() const
{
    fatal_if(numResurrectees == 0, "need at least one resurrectee core");
    fatal_if(numResurrectors == 0, "need at least one resurrector core");
    fatal_if(fetchWidth == 0 || commitWidth == 0, "zero pipeline width");
    validateCache(l1i, pageBytes);
    validateCache(l1d, pageBytes);
    validateCache(l2, pageBytes);
    fatal_if(itlb.entries % itlb.associativity != 0,
             "itlb entries not divisible by associativity");
    fatal_if(dtlb.entries % dtlb.associativity != 0,
             "dtlb entries not divisible by associativity");
    fatal_if(!isPowerOf2(pageBytes), "page size not a power of 2");
    fatal_if(coreClockMHz % busClockMHz != 0,
             "core clock must be an integer multiple of the bus clock");
    fatal_if(traceFifoEntries == 0, "trace FIFO needs at least one entry");
    fatal_if(!isPowerOf2(backupLineBytes) || backupLineBytes > pageBytes,
             "bad backup line size");
    fatal_if(dram.numBanks == 0 || !isPowerOf2(dram.numBanks),
             "DRAM bank count must be a nonzero power of 2");
    fatal_if(!isPowerOf2(dram.rowBytes),
             "dram.rowBytes must be a nonzero power of 2");
    fatal_if(!isPowerOf2(busWidthBytes),
             "busWidthBytes must be a nonzero power of 2");
    fatal_if(physMemBytes < 16ULL * 1024 * 1024,
             "physical memory too small to host a service");
    fatal_if(domainCount == 0 || domainCount > 64,
             "domain count must be in [1, 64]");
}

void
SystemConfig::print(std::ostream &os) const
{
    os << "--- processor model parameters (Table 4) ---\n"
       << "  fetch/decode width        " << fetchWidth << "\n"
       << "  issue/commit width        " << commitWidth << "\n"
       << "  L1 I-cache                "
       << (l1i.associativity == 1 ? "DM" : "SA") << ", "
       << l1i.sizeBytes / 1024 << "KB, " << l1i.lineBytes << "B line\n"
       << "  L1 D-cache                "
       << (l1d.associativity == 1 ? "DM" : "SA") << ", "
       << l1d.sizeBytes / 1024 << "KB, " << l1d.lineBytes << "B line\n"
       << "  L2 cache                  " << l2.associativity
       << "way, unified, " << l2.lineBytes << "B line, WB, "
       << l2.sizeBytes / 1024 << "KB per core\n"
       << "  L1/L2 latency             " << l1i.hitLatency << " cycle / "
       << l2.hitLatency << " cycles\n"
       << "  I-TLB                     " << itlb.associativity << "-way, "
       << itlb.entries << " entries\n"
       << "  D-TLB                     " << dtlb.associativity << "-way, "
       << dtlb.entries << " entries\n"
       << "  memory bus                " << busClockMHz << "MHz, "
       << busWidthBytes << "B wide\n"
       << "  CAS latency               " << dram.casLatency
       << " mem bus clocks\n"
       << "  pre-charge latency (RP)   " << dram.prechargeLatency
       << " mem bus clocks\n"
       << "  RAS-to-CAS (RCD) latency  " << dram.rasToCasLatency
       << " mem bus clocks\n"
       << "--- INDRA parameters ---\n"
       << "  trace FIFO entries        " << traceFifoEntries << "\n"
       << "  filter CAM entries        " << filterCamEntries << "\n"
       << "  checkpoint scheme         "
       << checkpointSchemeName(checkpointScheme) << "\n"
       << "  monitor enabled           "
       << (monitorEnabled ? "yes" : "no") << "\n";
}

} // namespace indra
