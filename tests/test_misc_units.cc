/** @file Unit tests for the small leaf components: line bitvectors,
 * the MiniIsa helpers, the filter CAM, and the client-side drivers. */

#include <gtest/gtest.h>

#include "checkpoint/bitvec.hh"
#include "cpu/filter_cam.hh"
#include "cpu/isa.hh"
#include "net/client.hh"
#include "sim/stats.hh"

using namespace indra;

// ------------------------------------------------------ LineBitVector

TEST(BitVec, SetTestClear)
{
    ckpt::LineBitVector bv(64);
    EXPECT_FALSE(bv.test(0));
    bv.set(0);
    bv.set(63);
    EXPECT_TRUE(bv.test(0));
    EXPECT_TRUE(bv.test(63));
    EXPECT_FALSE(bv.test(32));
    bv.clear(0);
    EXPECT_FALSE(bv.test(0));
    EXPECT_TRUE(bv.test(63));
}

TEST(BitVec, MultiWordSizes)
{
    ckpt::LineBitVector bv(130);
    bv.set(0);
    bv.set(64);
    bv.set(129);
    EXPECT_EQ(bv.popcount(), 3u);
    EXPECT_TRUE(bv.test(129));
    EXPECT_FALSE(bv.test(128));
}

TEST(BitVec, OrWith)
{
    ckpt::LineBitVector a(64), b(64);
    a.set(1);
    b.set(2);
    b.set(1);
    a.orWith(b);
    EXPECT_TRUE(a.test(1));
    EXPECT_TRUE(a.test(2));
    EXPECT_EQ(a.popcount(), 2u);
}

TEST(BitVec, AnyAndClearAll)
{
    ckpt::LineBitVector bv(64);
    EXPECT_FALSE(bv.any());
    bv.set(17);
    EXPECT_TRUE(bv.any());
    bv.clearAll();
    EXPECT_FALSE(bv.any());
    EXPECT_EQ(bv.popcount(), 0u);
}

TEST(BitVecDeath, OutOfRangePanics)
{
    ckpt::LineBitVector bv(64);
    EXPECT_DEATH(bv.set(64), "out of range");
    EXPECT_DEATH(bv.test(100), "out of range");
}

TEST(BitVecDeath, SizeMismatchOrPanics)
{
    ckpt::LineBitVector a(64), b(128);
    EXPECT_DEATH(a.orWith(b), "mismatch");
}

// --------------------------------------------------------------- ISA

TEST(Isa, OpNames)
{
    EXPECT_STREQ(cpu::opName(cpu::Op::Alu), "alu");
    EXPECT_STREQ(cpu::opName(cpu::Op::CallInd), "call.ind");
    EXPECT_STREQ(cpu::opName(cpu::Op::Longjmp), "longjmp");
    EXPECT_STREQ(cpu::opName(cpu::Op::IoWrite), "io.write");
}

TEST(Isa, ControlTransferClassification)
{
    EXPECT_TRUE(cpu::isControlTransfer(cpu::Op::Call));
    EXPECT_TRUE(cpu::isControlTransfer(cpu::Op::Return));
    EXPECT_TRUE(cpu::isControlTransfer(cpu::Op::JumpInd));
    EXPECT_TRUE(cpu::isControlTransfer(cpu::Op::Longjmp));
    EXPECT_FALSE(cpu::isControlTransfer(cpu::Op::Alu));
    EXPECT_FALSE(cpu::isControlTransfer(cpu::Op::Load));
    EXPECT_FALSE(cpu::isControlTransfer(cpu::Op::Syscall));
}

TEST(Isa, NextPcAndToString)
{
    cpu::Instruction i;
    i.op = cpu::Op::Call;
    i.pc = 0x1000;
    i.target = 0x2000;
    EXPECT_EQ(i.nextPc(), 0x1004u);
    std::string s = i.toString();
    EXPECT_NE(s.find("call"), std::string::npos);
    EXPECT_NE(s.find("2000"), std::string::npos);
}

// --------------------------------------------------------- FilterCam

TEST(FilterCam, MissThenHit)
{
    stats::StatGroup g("t");
    cpu::FilterCam cam(4, g);
    EXPECT_FALSE(cam.lookupInsert(0x1000));
    EXPECT_TRUE(cam.lookupInsert(0x1000));
    EXPECT_EQ(cam.lookups(), 2u);
    EXPECT_EQ(cam.hits(), 1u);
}

TEST(FilterCam, LruEviction)
{
    stats::StatGroup g("t");
    cpu::FilterCam cam(2, g);
    cam.lookupInsert(0x1000);
    cam.lookupInsert(0x2000);
    cam.lookupInsert(0x1000);  // refresh
    cam.lookupInsert(0x3000);  // evicts 0x2000
    EXPECT_TRUE(cam.lookupInsert(0x1000));
    EXPECT_FALSE(cam.lookupInsert(0x2000));
}

TEST(FilterCam, ZeroCapacityNeverHits)
{
    stats::StatGroup g("t");
    cpu::FilterCam cam(0, g);
    EXPECT_FALSE(cam.lookupInsert(0x1000));
    EXPECT_FALSE(cam.lookupInsert(0x1000));
    EXPECT_DOUBLE_EQ(cam.missRatio(), 1.0);
}

TEST(FilterCam, InvalidateForgetsEverything)
{
    stats::StatGroup g("t");
    cpu::FilterCam cam(4, g);
    cam.lookupInsert(0x1000);
    cam.invalidate();
    EXPECT_FALSE(cam.lookupInsert(0x1000));
}

TEST(FilterCam, MissRatio)
{
    stats::StatGroup g("t");
    cpu::FilterCam cam(8, g);
    cam.lookupInsert(0x1000);  // miss
    cam.lookupInsert(0x1000);  // hit
    cam.lookupInsert(0x1000);  // hit
    cam.lookupInsert(0x2000);  // miss
    EXPECT_DOUBLE_EQ(cam.missRatio(), 0.5);
}

// ------------------------------------------------------ ClientScript

TEST(Client, BenignSequencesAreNumbered)
{
    auto reqs = net::ClientScript::benign(5);
    ASSERT_EQ(reqs.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(reqs[i].seq, i + 1);
        EXPECT_EQ(reqs[i].attack, net::AttackKind::None);
    }
}

TEST(Client, PeriodicAttackPlacement)
{
    auto reqs = net::ClientScript::periodicAttack(
        9, net::AttackKind::StackSmash, 3);
    int attacks = 0;
    for (const auto &r : reqs) {
        if (r.attack != net::AttackKind::None) {
            ++attacks;
            EXPECT_EQ(r.seq % 3, 0u);
        }
    }
    EXPECT_EQ(attacks, 3);
}

TEST(Client, PeriodZeroMeansNoAttacks)
{
    auto reqs = net::ClientScript::periodicAttack(
        5, net::AttackKind::StackSmash, 0);
    for (const auto &r : reqs)
        EXPECT_EQ(r.attack, net::AttackKind::None);
}

TEST(Client, RandomMixRespectsProbability)
{
    auto reqs = net::ClientScript::randomMix(
        2000, 0.25, {net::AttackKind::DosFlood}, 9);
    int attacks = 0;
    for (const auto &r : reqs) {
        if (r.attack != net::AttackKind::None)
            ++attacks;
    }
    EXPECT_NEAR(attacks / 2000.0, 0.25, 0.04);
}

TEST(Client, RandomMixDeterministic)
{
    auto a = net::ClientScript::randomMix(
        50, 0.5, {net::AttackKind::DosFlood}, 3);
    auto b = net::ClientScript::randomMix(
        50, 0.5, {net::AttackKind::DosFlood}, 3);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].attack, b[i].attack);
}

TEST(Client, AvailabilityReportLostLowersAvailability)
{
    std::vector<net::RequestOutcome> outcomes(4);
    outcomes[0].status = net::RequestStatus::Served;
    outcomes[1].status = net::RequestStatus::Lost;
    outcomes[2].status = net::RequestStatus::DetectedRecovered;
    outcomes[3].status = net::RequestStatus::MacroRecovered;
    auto rep = net::AvailabilityReport::build(outcomes);
    EXPECT_EQ(rep.served, 1u);
    EXPECT_EQ(rep.lost, 1u);
    EXPECT_EQ(rep.recovered, 1u);
    EXPECT_EQ(rep.macroRecovered, 1u);
    EXPECT_DOUBLE_EQ(rep.availability(), 0.75);
}

TEST(Client, AvailabilityReportCountsDomainRewoundAsAnswered)
{
    std::vector<net::RequestOutcome> outcomes(4);
    outcomes[0].status = net::RequestStatus::Served;
    outcomes[1].status = net::RequestStatus::DomainRewound;
    outcomes[2].status = net::RequestStatus::DomainRewound;
    outcomes[3].status = net::RequestStatus::Lost;
    auto rep = net::AvailabilityReport::build(outcomes);
    EXPECT_EQ(rep.total, 4u);
    EXPECT_EQ(rep.served, 1u);
    EXPECT_EQ(rep.domainRewound, 2u);
    EXPECT_EQ(rep.lost, 1u);
    EXPECT_DOUBLE_EQ(rep.availability(), 0.75);
}

TEST(Client, MeanBenignResponseExcludesAttacks)
{
    std::vector<net::RequestOutcome> outcomes(2);
    outcomes[0].status = net::RequestStatus::Served;
    outcomes[0].attack = net::AttackKind::None;
    outcomes[0].startTick = 0;
    outcomes[0].endTick = 100;
    outcomes[1].status = net::RequestStatus::DetectedRecovered;
    outcomes[1].attack = net::AttackKind::DosFlood;
    outcomes[1].startTick = 0;
    outcomes[1].endTick = 99999;
    auto rep = net::AvailabilityReport::build(outcomes);
    EXPECT_DOUBLE_EQ(rep.meanBenignResponse, 100.0);
}
