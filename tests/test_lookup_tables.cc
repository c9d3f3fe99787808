/** @file Differential tests of the execute path's lookup structures
 * against plain-map reference models: the AddressSpace translation
 * memo, PhysicalMemory's pfn-indexed frame tables and the watchdog's
 * pfn-indexed grant masks, each driven by seeded random operation
 * sequences and compared after every step. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "mem/phys_mem.hh"
#include "mem/watchdog.hh"
#include "os/address_space.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

using namespace indra;

namespace
{

// ----------------------------------------------------- AddressSpace

/** The memo in front of AddressSpace's page table. */
using PageMemo = PointerMemo<const os::PageInfo>;

/** The first @p n vpns from @p from up that share @p vpn's memo slot. */
std::vector<Vpn>
aliasesOf(Vpn vpn, std::size_t n, Vpn from)
{
    std::vector<Vpn> out;
    for (Vpn v = from; out.size() < n; ++v) {
        if (PageMemo::slotOf(v) == PageMemo::slotOf(vpn))
            out.push_back(v);
    }
    return out;
}

/**
 * Map, unmap, remap and translate over a vpn pool whose members come
 * in groups of four that share one memo slot, so every slot is
 * contended and a memoized vpn is regularly unmapped and then mapped
 * again.
 */
TEST(LookupAddressSpace, MatchesMapReference)
{
    constexpr Pid pid = 3;
    constexpr std::uint32_t pageBytes = 4096;
    std::vector<Vpn> pool;
    for (Vpn base : {0x400u, 0x10000u, 0x20000u, 0x7ffefu}) {
        for (Vpn v : aliasesOf(base, 4, base))
            pool.push_back(v);
    }

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        stats::StatGroup root("test");
        mem::PhysicalMemory phys(256 * pageBytes, pageBytes);
        mem::MemWatchdog watchdog(root);
        os::AddressSpace space(pid, phys, pageBytes, &watchdog, 2);
        std::map<Vpn, os::PageInfo> ref;
        Pcg32 rng(seed * 977 + 1);

        for (int step = 0; step < 4000; ++step) {
            Vpn vpn = pool[rng.nextBounded(
                static_cast<std::uint32_t>(pool.size()))];
            auto it = ref.find(vpn);
            std::uint32_t op = rng.nextBounded(100);
            if (op < 25) {
                if (it == ref.end()) {
                    auto region = static_cast<os::Region>(
                        rng.nextBounded(5));
                    Pfn pfn = space.mapPage(vpn, region);
                    os::PageInfo info;
                    info.pfn = pfn;
                    info.region = region;
                    info.executable = region == os::Region::Code ||
                        region == os::Region::DynCode;
                    ref[vpn] = info;
                }
            } else if (op < 45) {
                ASSERT_EQ(space.unmapPage(vpn), it != ref.end());
                if (it != ref.end())
                    ref.erase(it);
            } else if (op < 55) {
                if (it != ref.end()) {
                    Pfn fresh = phys.allocFrame();
                    ASSERT_EQ(space.remapPage(vpn, fresh), it->second.pfn);
                    it->second.pfn = fresh;
                }
            } else {
                // Lookups only; the loop below checks the results.
                space.translate(pid, vpn);
            }

            ASSERT_EQ(space.pageCount(), ref.size()) << "step " << step;
            for (Vpn v : pool) {
                auto want = ref.find(v);
                const os::PageInfo *got = space.findPage(v);
                if (want == ref.end()) {
                    ASSERT_EQ(got, nullptr) << "step " << step;
                    ASSERT_EQ(space.translate(pid, v), invalidPfn);
                    ASSERT_FALSE(space.isMapped(v));
                    continue;
                }
                ASSERT_NE(got, nullptr) << "step " << step;
                ASSERT_EQ(got->pfn, want->second.pfn);
                ASSERT_EQ(got->region, want->second.region);
                ASSERT_EQ(got->executable, want->second.executable);
                ASSERT_EQ(&space.pageInfo(v), got);
                ASSERT_TRUE(space.isMapped(v));
                ASSERT_EQ(space.translate(pid, v), want->second.pfn);
                ASSERT_EQ(space.translate(pid + 1, v), invalidPfn);
                ASSERT_TRUE(watchdog.isGranted(want->second.pfn, 2));
            }
        }
        std::vector<Vpn> mapped = space.mappedPages();
        std::sort(mapped.begin(), mapped.end());
        std::vector<Vpn> want;
        for (const auto &[v, info] : ref)
            want.push_back(v);
        EXPECT_EQ(mapped, want);
    }
}

// Translating a vpn memoizes it; unmapping must drop the memo so the
// vpn stops translating, and a remap must translate to the new frame.
TEST(LookupAddressSpace, UnmapThenRemapOfMemoizedVpn)
{
    constexpr std::uint32_t pageBytes = 4096;
    mem::PhysicalMemory phys(64 * pageBytes, pageBytes);
    os::AddressSpace space(1, phys, pageBytes, nullptr, 1);
    const Vpn vpn = 0x400;
    const Vpn other = aliasesOf(vpn, 1, vpn + 1)[0];
    Pfn first = space.mapPage(vpn, os::Region::Data);
    ASSERT_EQ(space.translate(1, vpn), first);
    ASSERT_TRUE(space.unmapPage(vpn));
    EXPECT_EQ(space.translate(1, vpn), invalidPfn);
    EXPECT_EQ(space.findPage(vpn), nullptr);

    // The freed frame is reused by the next map of another vpn in the
    // same memo slot; the original vpn must still miss.
    Pfn alias = space.mapPage(other, os::Region::Heap);
    EXPECT_EQ(alias, first);
    EXPECT_EQ(space.translate(1, other), alias);
    EXPECT_EQ(space.translate(1, vpn), invalidPfn);

    Pfn second = space.mapPage(vpn, os::Region::Stack);
    EXPECT_EQ(space.translate(1, vpn), second);
    EXPECT_EQ(space.pageInfo(vpn).region, os::Region::Stack);
    Pfn moved = phys.allocFrame();
    EXPECT_EQ(space.remapPage(vpn, moved), second);
    EXPECT_EQ(space.translate(1, vpn), moved);
    EXPECT_EQ(space.translate(1, other), alias);
}

// --------------------------------------------------- PhysicalMemory

/** The reference: frame bytes, live flags and versions in maps. */
struct RefPhys
{
    std::uint32_t pageBytes;
    std::map<Pfn, std::vector<std::uint8_t>> bytes;
    std::map<Pfn, bool> live;
    std::map<Pfn, std::uint64_t> versions;

    std::vector<std::uint8_t> &
    frame(Pfn pfn)
    {
        auto &b = bytes[pfn];
        if (b.empty())
            b.assign(pageBytes, 0);
        return b;
    }
};

/**
 * Alloc, free, reuse, write, copy (self-overlapping and from all-zero
 * frames) and frameVersion over a 48-frame memory, including frames
 * above the allocator's high-water mark.
 */
TEST(LookupPhysMem, MatchesMapReference)
{
    constexpr std::uint32_t pageBytes = 256;
    constexpr Pfn frames = 48;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        mem::PhysicalMemory phys(frames * pageBytes, pageBytes);
        RefPhys ref{pageBytes, {}, {}, {}};
        std::vector<Pfn> alive;
        Pcg32 rng(seed * 31 + 7);

        for (int step = 0; step < 3000; ++step) {
            std::uint32_t op = rng.nextBounded(100);
            Pfn pfn = rng.nextBounded(frames);
            if (op < 15) {
                if (alive.size() < frames) {
                    Pfn got = phys.allocFrame();
                    ASSERT_FALSE(ref.live[got]) << "step " << step;
                    ref.live[got] = true;
                    alive.push_back(got);
                }
            } else if (op < 30) {
                if (!alive.empty()) {
                    std::size_t i = rng.nextBounded(
                        static_cast<std::uint32_t>(alive.size()));
                    Pfn victim = alive[i];
                    alive.erase(alive.begin() +
                                static_cast<std::ptrdiff_t>(i));
                    phys.freeFrame(victim);
                    ref.live[victim] = false;
                    ref.bytes.erase(victim);
                    ++ref.versions[victim];
                }
            } else if (op < 60) {
                // Any frame in range, allocated or not.
                std::uint32_t len = 1 + rng.nextBounded(32);
                std::uint32_t off = rng.nextBounded(pageBytes - len + 1);
                std::vector<std::uint8_t> in(len);
                for (auto &b : in)
                    b = static_cast<std::uint8_t>(rng.next());
                phys.write(pfn, off, in.data(), len);
                std::memcpy(ref.frame(pfn).data() + off, in.data(), len);
                ++ref.versions[pfn];
            } else if (op < 90) {
                // Half the copies stay inside one frame, overlapping.
                Pfn src = op < 75 ? pfn : rng.nextBounded(frames);
                std::uint32_t len = 1 + rng.nextBounded(pageBytes / 2);
                std::uint32_t src_off =
                    rng.nextBounded(pageBytes - len + 1);
                std::uint32_t dst_off =
                    rng.nextBounded(pageBytes - len + 1);
                phys.copy(pfn, dst_off, src, src_off, len);
                std::vector<std::uint8_t> tmp(len, 0);
                auto it = ref.bytes.find(src);
                if (it != ref.bytes.end())
                    std::memcpy(tmp.data(), it->second.data() + src_off,
                                len);
                std::memcpy(ref.frame(pfn).data() + dst_off, tmp.data(),
                            len);
                ++ref.versions[pfn];
            }

            std::uint64_t live_count = 0;
            // Two frames past the end of memory check that lookups
            // there read as never touched.
            for (Pfn p = 0; p < frames + 2; ++p) {
                bool live = ref.live.count(p) && ref.live[p];
                live_count += live;
                ASSERT_EQ(phys.isAllocated(p), live)
                    << "pfn " << p << " step " << step;
                std::uint64_t version =
                    ref.versions.count(p) ? ref.versions[p] : 0;
                ASSERT_EQ(phys.frameVersion(p), version)
                    << "pfn " << p << " step " << step;
            }
            ASSERT_EQ(phys.framesAllocated(), live_count);
            Pfn probe = rng.nextBounded(frames);
            auto it = ref.bytes.find(probe);
            std::vector<std::uint8_t> want =
                it == ref.bytes.end()
                    ? std::vector<std::uint8_t>(pageBytes, 0)
                    : it->second;
            ASSERT_EQ(phys.snapshotFrame(probe), want)
                << "pfn " << probe << " step " << step;
        }
    }
}

// A write above the allocator's high-water mark grows the tables; the
// allocator must still hand that frame out later, keeping its version.
TEST(LookupPhysMem, WriteAboveHighWaterMark)
{
    constexpr std::uint32_t pageBytes = 256;
    mem::PhysicalMemory phys(16 * pageBytes, pageBytes);
    EXPECT_EQ(phys.frameVersion(9), 0u);
    phys.write64(9, 8, 0x1234);
    EXPECT_EQ(phys.frameVersion(9), 1u);
    EXPECT_FALSE(phys.isAllocated(9));
    EXPECT_EQ(phys.frameVersion(10), 0u);
    for (Pfn want = 0; want < 10; ++want)
        EXPECT_EQ(phys.allocFrame(), want);
    EXPECT_TRUE(phys.isAllocated(9));
    EXPECT_EQ(phys.read64(9, 8), 0x1234u);
    phys.freeFrame(9);
    EXPECT_EQ(phys.frameVersion(9), 2u);
    EXPECT_EQ(phys.read64(9, 8), 0u);
}

// ------------------------------------------------------- MemWatchdog

/** The verdict the reference grant map implies for a low core. */
mem::WatchdogVerdict
refVerdict(const std::map<Pfn, std::uint64_t> &ref, Pfn pfn, CoreId core)
{
    auto it = ref.find(pfn);
    if (it == ref.end() || it->second == 0)
        return mem::WatchdogVerdict::DeniedPrivate;
    if (!(it->second & (1ULL << core)))
        return mem::WatchdogVerdict::DeniedWrongCore;
    return mem::WatchdogVerdict::Allowed;
}

/**
 * Grant, revoke and revokeAll over 40 frames and 8 cores; after every
 * step, every check verdict and the nonzero entries of grantTable()
 * must match the reference map.
 */
TEST(LookupWatchdog, MatchesMapReference)
{
    constexpr Pfn frames = 40;
    constexpr CoreId cores = 8;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        stats::StatGroup root("test");
        mem::MemWatchdog wd(root);
        std::map<Pfn, std::uint64_t> ref;
        std::uint64_t denials = 0;
        Pcg32 rng(seed * 7919 + 3);

        for (int step = 0; step < 2000; ++step) {
            Pfn pfn = rng.nextBounded(frames);
            auto core = static_cast<CoreId>(rng.nextBounded(cores));
            std::uint32_t op = rng.nextBounded(100);
            if (op < 45) {
                wd.grant(pfn, core);
                ref[pfn] |= 1ULL << core;
            } else if (op < 80) {
                wd.revoke(pfn, core);
                auto it = ref.find(pfn);
                if (it != ref.end()) {
                    it->second &= ~(1ULL << core);
                    if (it->second == 0)
                        ref.erase(it);
                }
            } else {
                wd.revokeAll(pfn);
                ref.erase(pfn);
            }

            std::map<Pfn, std::uint64_t> table;
            const std::vector<std::uint64_t> &grants = wd.grantTable();
            for (Pfn p = 0; p < grants.size(); ++p) {
                if (grants[p])
                    table[p] = grants[p];
            }
            ASSERT_EQ(table, ref) << "step " << step;

            // One frame past every grant reads as private.
            for (Pfn p = 0; p <= frames; ++p) {
                for (CoreId c = 0; c < cores; ++c) {
                    auto want = refVerdict(ref, p, c);
                    ASSERT_EQ(wd.check(c, Privilege::Low, p), want)
                        << "pfn " << p << " core " << c << " step "
                        << step;
                    denials += want != mem::WatchdogVerdict::Allowed;
                    ASSERT_EQ(wd.isGranted(p, c),
                              want == mem::WatchdogVerdict::Allowed);
                }
                ASSERT_EQ(wd.check(0, Privilege::High, p),
                          mem::WatchdogVerdict::Allowed);
            }
            ASSERT_EQ(wd.denials(), denials);
        }
    }
}

} // namespace
