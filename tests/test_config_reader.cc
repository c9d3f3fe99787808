/**
 * @file
 * Tests for the NodeConfig key registry and the strict parsers under
 * it: typed settings land in their fields, every registered key
 * rejects every malformed value with a fatal error naming the key,
 * and every key the README documents is registered.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/node_config.hh"
#include "sim/config_reader.hh"

using namespace indra;
using core::applyNodeSetting;
using core::applyNodeSettings;
using core::NodeConfig;

TEST(ConfigReader, NumericSettings)
{
    NodeConfig node;
    applyNodeSetting(node, "traceFifoEntries", "64");
    applyNodeSetting(node, "filterCamEntries", "128");
    applyNodeSetting(node, "rngSeed", "999");
    EXPECT_EQ(node.system.traceFifoEntries, 64u);
    EXPECT_EQ(node.system.filterCamEntries, 128u);
    EXPECT_EQ(node.system.rngSeed, 999u);
}

TEST(ConfigReader, BooleanSettings)
{
    NodeConfig node;
    applyNodeSetting(node, "monitorEnabled", "false");
    EXPECT_FALSE(node.system.monitorEnabled);
    applyNodeSetting(node, "monitorEnabled", "yes");
    EXPECT_TRUE(node.system.monitorEnabled);
    applyNodeSetting(node, "eagerRollback", "1");
    EXPECT_TRUE(node.system.eagerRollback);
    applyNodeSetting(node, "sharedResurrector", "on");
    EXPECT_TRUE(node.system.sharedResurrector);
}

TEST(ConfigReader, SchemeSetting)
{
    NodeConfig node;
    applyNodeSetting(node, "checkpointScheme", "memory-update-log");
    EXPECT_EQ(node.system.checkpointScheme,
              CheckpointScheme::MemoryUpdateLog);
}

TEST(ConfigReader, UnknownKeyReturnsFalse)
{
    EXPECT_EQ(core::findNodeSetting("noSuchKnob"), nullptr);
}

TEST(ConfigReader, SchemeNamesRoundTrip)
{
    for (CheckpointScheme s :
         {CheckpointScheme::None, CheckpointScheme::DeltaBackup,
          CheckpointScheme::VirtualCheckpoint,
          CheckpointScheme::MemoryUpdateLog,
          CheckpointScheme::SoftwareCheckpoint,
          CheckpointScheme::DomainRewind}) {
        EXPECT_EQ(checkpointSchemeFromName(checkpointSchemeName(s)), s);
    }
}

TEST(ConfigReader, DomainSettings)
{
    NodeConfig node;
    applyNodeSetting(node, "checkpointScheme", "domain-rewind");
    applyNodeSetting(node, "domain.count", "8");
    applyNodeSetting(node, "domain.rewind_setup_cycles", "5000");
    EXPECT_EQ(node.system.checkpointScheme,
              CheckpointScheme::DomainRewind);
    EXPECT_EQ(node.system.domainCount, 8u);
    EXPECT_EQ(node.system.domainRewindSetupCycles, 5000u);
}

TEST(ConfigReaderDeath, BadSchemeIsFatal)
{
    // The error must name both the offending value and the setting
    // key it arrived through.
    EXPECT_DEATH(checkpointSchemeFromName("gzip"),
                 "setting 'checkpointScheme'.*unknown checkpoint "
                 "scheme 'gzip'");
}

TEST(ConfigReaderDeath, BadSchemeNamesTheOriginatingKey)
{
    EXPECT_DEATH(checkpointSchemeFromName("gzip", "scheme"),
                 "setting 'scheme'");
}

TEST(ConfigReaderDeath, BadSchemeViaSettingIsFatal)
{
    NodeConfig node;
    EXPECT_DEATH(
        applyNodeSetting(node, "checkpointScheme", "delta-bakcup"),
        "unknown checkpoint scheme");
}

TEST(ConfigReaderDeath, BadNumberIsFatal)
{
    NodeConfig node;
    EXPECT_DEATH(applyNodeSetting(node, "traceFifoEntries", "lots"),
                 "not a number");
}

TEST(ConfigReaderDeath, BadBooleanIsFatal)
{
    NodeConfig node;
    EXPECT_DEATH(applyNodeSetting(node, "monitorEnabled", "maybe"),
                 "not a boolean");
}

TEST(ConfigReaderDeath, TypoedConfigLikeKeyIsFatal)
{
    NodeConfig node;
    EXPECT_DEATH(applyNodeSettings(node, {"traceFifoEntriesX=48"}),
                 "unknown config setting");
}

// The DRAM model shifts by the row and bus-beat sizes, so a code-built
// config must fail validation naming the field when either is zero or
// not a power of 2, instead of dying of SIGFPE in a DRAM access.
TEST(ConfigValidateDeath, DramRowBytesMustBeNonzeroPowerOf2)
{
    for (std::uint32_t bad : {0u, 3000u}) {
        SystemConfig cfg;
        cfg.dram.rowBytes = bad;
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "fatal: dram.rowBytes must be a nonzero power of 2")
            << "rowBytes " << bad;
    }
}

TEST(ConfigValidateDeath, BusWidthBytesMustBeNonzeroPowerOf2)
{
    for (std::uint32_t bad : {0u, 12u}) {
        SystemConfig cfg;
        cfg.busWidthBytes = bad;
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "fatal: busWidthBytes must be a nonzero power of 2")
            << "busWidthBytes " << bad;
    }
}

TEST(ConfigReader, KnownKeysNonEmptyAndSorted)
{
    // One key per field: the registry's keys, sorted, never repeat.
    std::vector<std::string> keys;
    for (const core::NodeSetting &s : core::nodeSettings())
        keys.push_back(s.key);
    std::sort(keys.begin(), keys.end());
    EXPECT_GT(keys.size(), 20u);
    for (std::size_t i = 1; i < keys.size(); ++i)
        EXPECT_LT(keys[i - 1], keys[i]);
}

TEST(ConfigReader, AttackNamesRoundTrip)
{
    // attackKindFromName lives in net but belongs to the same
    // round-trip family.
    SUCCEED();
}

// ------------------------------------------------------ the registry

namespace
{

std::string
escapeRegex(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c && std::strchr(".^$|()[]{}*+?\\", c))
            out += '\\';
        out += c;
    }
    return out;
}

/** Die with exit 1 and a fatal: line naming @p key. */
void
expectRejected(const std::string &key, const std::string &value)
{
    SCOPED_TRACE(key + "=" + value);
    NodeConfig node;
    EXPECT_EXIT(applyNodeSetting(node, key, value),
                ::testing::ExitedWithCode(1),
                "fatal: .*" + escapeRegex(key));
}

} // anonymous namespace

TEST(ConfigRegistry, KeyCountAndOneKeyPerField)
{
    // One key per field: the domain.* fields have no second spelling.
    EXPECT_EQ(core::nodeSettings().size(), 68u);
    for (const char *alias : {"domainCount", "domainRewindSetupCycles",
                              "resilience.domain_heal_streak"})
        EXPECT_EQ(core::findNodeSetting(alias), nullptr) << alias;
}

TEST(ConfigRegistryDeathTest, EveryKeyRejectsMalformedValues)
{
    const std::vector<std::string> malformed = {
        "", " 1", "12abc", "-1", "18446744073709551616", "4294967296",
        "nan", "inf", "1e400",
    };
    for (const core::NodeSetting &s : core::nodeSettings()) {
        const bool u32 = s.syntax.rfind("u32", 0) == 0;
        const bool f64 = s.syntax.rfind("f64", 0) == 0;
        for (const std::string &v : malformed) {
            // 2^32 only overflows a u32; 2^64 is a finite double; an
            // empty fault plan arms nothing.
            if ((v == "4294967296" && !u32) ||
                (v == "18446744073709551616" && f64) ||
                (v.empty() && s.key == "faults.plan"))
                continue;
            expectRejected(s.key, v);
        }
        if (!s.outside.empty())
            expectRejected(s.key, s.outside);
    }
}

TEST(ConfigRegistryDeathTest, OutOfRangeProbesExistForEveryRange)
{
    // Each declared range has a probe just outside it.
    for (const char *key :
         {"domain.heal_streak", "adversary.burst", "adversary.gap",
          "adversary.occupancy_fraction", "adversary.gap_factor",
          "rejuvenation.period", "rejuvenation.epochs",
          "rejuvenation.threshold", "rejuvenation.decay",
          "resilience.degrade_queue_fraction",
          "resilience.tokens.standard", "resilience.burst.probe"}) {
        const core::NodeSetting *s = core::findNodeSetting(key);
        ASSERT_NE(s, nullptr) << key;
        EXPECT_FALSE(s->outside.empty()) << key;
    }
}

// One case per defect the strict parsers close.

TEST(ConfigProbeDeathTest, TrailingGarbageRejected)
{
    expectRejected("physMemBytes", "12abc");
}

TEST(ConfigProbeDeathTest, U32OverflowNotTruncated)
{
    expectRejected("traceFifoEntries", "4294967312");
}

TEST(ConfigProbeDeathTest, NegativeDoesNotWrap)
{
    expectRejected("traceFifoEntries", "-1");
    expectRejected("adversary.budget", "-1");
}

TEST(ConfigProbeDeathTest, NanFailsRangeChecks)
{
    expectRejected("adversary.occupancy_fraction", "nan");
    expectRejected("resilience.degrade_queue_fraction", "nan");
    expectRejected("rejuvenation.threshold", "nan");
}

TEST(ConfigProbeDeathTest, FaultRateMustBeFiniteInUnitRange)
{
    expectRejected("faults.plan", "delta-flip:nan");
    expectRejected("faults.plan", "delta-flip:-0.5");
    expectRejected("faults.plan", "delta-flip:1.5");
    expectRejected("faults.plan", "monitor-delay:0.5:-3");
}

TEST(ConfigProbe, OneBooleanSpellingSet)
{
    NodeConfig node;
    applyNodeSetting(node, "rca.replay", "no");
    EXPECT_FALSE(node.rca.replay);
    applyNodeSetting(node, "rca.replay", "yes");
    EXPECT_TRUE(node.rca.replay);
    applyNodeSetting(node, "monitorEnabled", "off");
    EXPECT_FALSE(node.system.monitorEnabled);
    applyNodeSetting(node, "monitorEnabled", "yes");
    EXPECT_TRUE(node.system.monitorEnabled);
}

TEST(ConfigProbe, ValidValuesKeepTheirMeaning)
{
    NodeConfig node;
    applyNodeSettings(node, {"traceFifoEntries=4294967295",
                             "adversary.budget=18446744073709551615",
                             "adversary.occupancy_fraction=1",
                             "rejuvenation.threshold=0.5",
                             "resilience.tokens.bulk=2.5",
                             "faults.plan=delta-flip:0:7"});
    EXPECT_EQ(node.system.traceFifoEntries, 4294967295u);
    EXPECT_EQ(node.adversary.budget, 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(node.adversary.occupancyFraction, 1.0);
    EXPECT_DOUBLE_EQ(node.resilience.rejuvenation.suspicionThreshold,
                     0.5);
    EXPECT_DOUBLE_EQ(node.resilience.tokensPerMCycle[1], 2.5);
    EXPECT_EQ(node.faults.magnitude(faults::FaultKind::DeltaFlip), 7u);
}

TEST(ConfigProbe, StrategyKeyArmsTheAttacker)
{
    NodeConfig node;
    EXPECT_FALSE(node.adversary.armed);
    applyNodeSetting(node, "adversary.strategy", "fixed");
    EXPECT_TRUE(node.adversary.armed);
}

TEST(ConfigRegistry, ReadmeKeysAreRegistered)
{
    // Every backticked, non-wildcard key in README's key tables (a
    // table whose header row starts "| key |") is a registered key.
    std::ifstream in(INDRA_README_PATH);
    ASSERT_TRUE(in) << INDRA_README_PATH;
    std::string line;
    bool inKeyTable = false;
    std::size_t checked = 0;
    while (std::getline(in, line)) {
        if (line.rfind("| key |", 0) == 0) {
            inKeyTable = true;
            continue;
        }
        if (line.empty() || line[0] != '|') {
            inKeyTable = false;
            continue;
        }
        if (!inKeyTable || line.rfind("|-", 0) == 0)
            continue;
        std::string first = line.substr(1, line.find('|', 1) - 1);
        // Each nonempty `...` span of the first cell.
        std::size_t open = first.find('`');
        while (open != std::string::npos) {
            std::size_t close = first.find('`', open + 1);
            if (close == std::string::npos)
                break;
            if (close == open + 1) {
                open = close;  // empty span: the closing tick opens
                continue;
            }
            std::string key = first.substr(open + 1, close - open - 1);
            open = first.find('`', close + 1);
            if (key.find('*') != std::string::npos)
                continue;
            EXPECT_NE(core::findNodeSetting(key), nullptr) << key;
            ++checked;
        }
    }
    EXPECT_GT(checked, 20u);
}
