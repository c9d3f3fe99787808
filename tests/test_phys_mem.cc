/** @file Tests for the sparse physical memory. */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/phys_mem.hh"

using namespace indra;
using mem::PhysicalMemory;

TEST(PhysMem, AllocatesDistinctFrames)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    Pfn b = pm.allocFrame();
    EXPECT_NE(a, b);
    EXPECT_TRUE(pm.isAllocated(a));
    EXPECT_TRUE(pm.isAllocated(b));
    EXPECT_EQ(pm.framesAllocated(), 2u);
}

TEST(PhysMem, FreeAndReuse)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.freeFrame(a);
    EXPECT_FALSE(pm.isAllocated(a));
    Pfn b = pm.allocFrame();
    EXPECT_EQ(a, b);  // free list reuse
}

TEST(PhysMem, FreshFramesReadZero)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    EXPECT_EQ(pm.read64(a, 0), 0u);
    EXPECT_EQ(pm.read64(a, 4088), 0u);
}

TEST(PhysMem, WriteReadRoundTrip)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.write64(a, 128, 0xdeadbeef12345678ULL);
    EXPECT_EQ(pm.read64(a, 128), 0xdeadbeef12345678ULL);
    EXPECT_EQ(pm.read64(a, 120), 0u);
    EXPECT_EQ(pm.read64(a, 136), 0u);
}

TEST(PhysMem, FreeDiscardsContents)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.write64(a, 0, 42);
    pm.freeFrame(a);
    Pfn b = pm.allocFrame();
    ASSERT_EQ(a, b);
    EXPECT_EQ(pm.read64(b, 0), 0u);
}

TEST(PhysMem, CopyBetweenFrames)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn src = pm.allocFrame();
    Pfn dst = pm.allocFrame();
    pm.write64(src, 64, 0x1111);
    pm.write64(src, 72, 0x2222);
    pm.copy(dst, 64, src, 64, 16);
    EXPECT_EQ(pm.read64(dst, 64), 0x1111u);
    EXPECT_EQ(pm.read64(dst, 72), 0x2222u);
}

TEST(PhysMem, CopyFromLazyFrameZeroes)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn src = pm.allocFrame();  // never written: lazy zero
    Pfn dst = pm.allocFrame();
    pm.write64(dst, 0, 99);
    pm.copy(dst, 0, src, 0, 64);
    EXPECT_EQ(pm.read64(dst, 0), 0u);
}

// isZeroFrame is exactly "not written since alloc, free or zeroFrame":
// any write ends it, even one of zeros.
TEST(PhysMem, ZeroFrameHoldsUntilTheFirstWrite)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    EXPECT_TRUE(pm.isZeroFrame(a));
    pm.write64(a, 8, 0);
    EXPECT_FALSE(pm.isZeroFrame(a));

    pm.zeroFrame(a);
    EXPECT_TRUE(pm.isZeroFrame(a));
    const std::uint8_t byte = 1;
    pm.write(a, 4095, &byte, 1);
    EXPECT_FALSE(pm.isZeroFrame(a));

    pm.freeFrame(a);
    Pfn b = pm.allocFrame();
    ASSERT_EQ(b, a);  // reuse of the freed frame
    EXPECT_TRUE(pm.isZeroFrame(b));
    EXPECT_EQ(pm.read64(b, 4088), 0u);
}

TEST(PhysMem, ZeroFrameDropsBytesAndBumpsVersion)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    std::uint64_t v0 = pm.frameVersion(a);
    pm.zeroFrame(a);  // already lazy: the version still moves
    std::uint64_t v1 = pm.frameVersion(a);
    EXPECT_GT(v1, v0);
    pm.write64(a, 64, 0x77);
    std::uint64_t v2 = pm.frameVersion(a);
    pm.zeroFrame(a);
    EXPECT_GT(pm.frameVersion(a), v2);
    EXPECT_EQ(pm.read64(a, 64), 0u);
    EXPECT_EQ(pm.snapshotFrame(a), std::vector<std::uint8_t>(4096, 0));
}

TEST(PhysMem, WholeCopyFromLazyFrameLeavesDestinationLazy)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn src = pm.allocFrame();  // never written: lazy zero
    Pfn dst = pm.allocFrame();
    pm.write64(dst, 128, 99);
    std::uint64_t before = pm.frameVersion(dst);
    pm.copy(dst, 0, src, 0, 4096);
    EXPECT_TRUE(pm.isZeroFrame(dst));
    EXPECT_GT(pm.frameVersion(dst), before);
    EXPECT_EQ(pm.read64(dst, 128), 0u);
    EXPECT_TRUE(pm.isZeroFrame(src));
}

TEST(PhysMem, PartialCopyFromLazyFrameMaterializesZeros)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn src = pm.allocFrame();
    Pfn dst = pm.allocFrame();
    std::uint64_t before = pm.frameVersion(dst);
    pm.copy(dst, 0, src, 0, 4095);
    EXPECT_FALSE(pm.isZeroFrame(dst));
    EXPECT_GT(pm.frameVersion(dst), before);
    EXPECT_EQ(pm.snapshotFrame(dst), std::vector<std::uint8_t>(4096, 0));
}

TEST(PhysMem, CopyWithinOneFrame)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.write64(a, 0, 7);
    pm.copy(a, 512, a, 0, 8);
    EXPECT_EQ(pm.read64(a, 512), 7u);
    EXPECT_EQ(pm.read64(a, 0), 7u);
}

TEST(PhysMem, SnapshotFrame)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.write64(a, 8, 0xabcd);
    auto snap = pm.snapshotFrame(a);
    ASSERT_EQ(snap.size(), 4096u);
    pm.write64(a, 8, 0);
    std::uint64_t v;
    std::memcpy(&v, snap.data() + 8, 8);
    EXPECT_EQ(v, 0xabcdu);
}

TEST(PhysMem, SnapshotLazyFrameIsZero)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    auto snap = pm.snapshotFrame(a);
    for (std::uint8_t byte : snap)
        ASSERT_EQ(byte, 0);
}

TEST(PhysMemDeath, ExhaustionIsFatal)
{
    PhysicalMemory pm(8192, 4096);  // two frames only
    pm.allocFrame();
    pm.allocFrame();
    EXPECT_DEATH(pm.allocFrame(), "out of physical memory");
}

TEST(PhysMemDeath, DoubleFreePanics)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.freeFrame(a);
    EXPECT_DEATH(pm.freeFrame(a), "unallocated");
}

TEST(PhysMemDeath, CrossBoundaryWritePanics)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    std::uint64_t v = 1;
    EXPECT_DEATH(pm.write(a, 4092, &v, 8), "boundary");
}
