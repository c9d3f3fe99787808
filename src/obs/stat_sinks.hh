/**
 * @file
 * StatSink implementations: the renderings of a stats tree.
 *
 *   TextStatSink  the human-readable aligned table the simulator has
 *                 always printed (dotted keys, 12-digit values, `#`
 *                 descriptions) — gem5 stats.txt style.
 *   JsonStatSink  one nested JSON object mirroring the group tree;
 *                 what --stats-json writes for plotting pipelines.
 *
 * Both are deterministic: the same tree renders the same bytes.
 */

#ifndef INDRA_OBS_STAT_SINKS_HH
#define INDRA_OBS_STAT_SINKS_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace indra::obs
{

/**
 * Shared prefix bookkeeping: keeps the dotted path ("system.l1i.")
 * current across beginGroup/endGroup so subclasses only format
 * values.
 */
class PrefixedStatSink : public stats::StatSink
{
  public:
    void beginGroup(const stats::StatGroup &group) override;
    void endGroup(const stats::StatGroup &group) override;

  protected:
    /** Dotted prefix of the currently open group, trailing dot. */
    const std::string &prefix() const { return _prefix; }

  private:
    std::string _prefix;
    std::vector<std::size_t> lengths;
};

/** The classic aligned text table. */
class TextStatSink : public PrefixedStatSink
{
  public:
    explicit TextStatSink(std::ostream &os) : out(os) {}

    void visitScalar(const stats::StatBase &stat, double value) override;
    void visitDistribution(const stats::Distribution &dist) override;
    void visitHistogram(const stats::Histogram &hist) override;

  private:
    void line(const std::string &key, double value,
              const std::string &desc);

    std::ostream &out;
};

/**
 * Nested JSON mirroring the group tree: groups become objects keyed
 * by name, scalar-likes become numbers, distributions/histograms
 * become objects of their moments/buckets. Rendering one root group
 * produces one complete document; emit more stats after endGroup of
 * the root and the document is already closed.
 */
class JsonStatSink : public stats::StatSink
{
  public:
    explicit JsonStatSink(std::ostream &os) : out(os) {}

    void beginGroup(const stats::StatGroup &group) override;
    void endGroup(const stats::StatGroup &group) override;
    void visitScalar(const stats::StatBase &stat, double value) override;
    void visitDistribution(const stats::Distribution &dist) override;
    void visitHistogram(const stats::Histogram &hist) override;

  private:
    void member(const std::string &key);

    std::ostream &out;
    std::vector<bool> firstInScope;
};

} // namespace indra::obs

#endif // INDRA_OBS_STAT_SINKS_HH
