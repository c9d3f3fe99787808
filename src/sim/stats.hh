/**
 * @file
 * A small statistics package in the spirit of gem5's Stats.
 *
 * Components own StatGroup instances; scalar counters, gauges,
 * averages, and distributions register themselves with their group by
 * name. Groups nest, and a whole tree is exported by walking it with
 * a StatSink visitor: the sink decides the rendering (aligned text
 * table, JSON, CSV — see obs/stat_sinks.hh), so the stats themselves
 * never touch an ostream.
 */

#ifndef INDRA_SIM_STATS_HH
#define INDRA_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace indra::stats
{

class StatGroup;
class StatBase;
class Distribution;
class Histogram;

/**
 * Visitor over a statistics tree. StatGroup::accept() drives it:
 * beginGroup/endGroup bracket each (nested) group, every scalar-like
 * stat (Scalar, Formula) arrives through visitScalar with its
 * current value, and the multi-valued stats pass themselves so sinks
 * can render whichever moments/buckets they care about.
 */
class StatSink
{
  public:
    virtual ~StatSink() = default;

    virtual void beginGroup(const StatGroup &group) = 0;
    virtual void endGroup(const StatGroup &group) = 0;
    virtual void visitScalar(const StatBase &stat, double value) = 0;
    virtual void visitDistribution(const Distribution &dist) = 0;
    virtual void visitHistogram(const Histogram &hist) = 0;
};

/** Base class for every named statistic. */
class StatBase
{
  public:
    StatBase(StatGroup &parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Present this stat's value(s) to @p sink. */
    virtual void accept(StatSink &sink) const = 0;

    /** Reset to the post-construction state. */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/**
 * A monotonically updated scalar counter: it only ever accumulates
 * (operator++ / operator+=) and resets to zero.
 */
class Scalar : public StatBase
{
  public:
    Scalar(StatGroup &parent, std::string name, std::string desc);

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    double value() const { return _value; }

    void accept(StatSink &sink) const override;
    void reset() override { _value = 0; }

  private:
    double _value = 0;
};

/**
 * A derived value computed on demand from other stats (gem5 Formula).
 */
class Formula : public StatBase
{
  public:
    using Fn = std::function<double()>;

    Formula(StatGroup &parent, std::string name, std::string desc, Fn fn);

    double value() const { return fn ? fn() : 0.0; }

    void accept(StatSink &sink) const override;
    void reset() override {}

  private:
    Fn fn;
};

/**
 * Sample distribution: tracks count, sum, min, max, and — via
 * Welford's online algorithm, which stays accurate even when the
 * variance is tiny next to the mean — the standard deviation.
 */
class Distribution : public StatBase
{
  public:
    /**
     * The running moments of one sample stream. sample() is the only
     * Welford update in the tree: Distribution::sample forwards to it,
     * and a batch kernel (MemHierarchy::pageTransfer) copies the
     * moments into a local, samples every value in order, and stores
     * them back. Welford rounding is order-dependent, so samples are
     * never merged or reordered.
     */
    struct Moments
    {
        std::uint64_t n = 0;
        double total = 0;
        double runMean = 0;  //!< Welford running mean
        double m2 = 0;       //!< Welford sum of squared deviations
        double lo = 0;
        double hi = 0;

        void
        sample(double v)
        {
            if (n == 0) {
                lo = hi = v;
            } else {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            ++n;
            total += v;
            // Welford update: E[x^2] - E[x]^2 cancels catastrophically
            // for large-mean/small-variance samples (e.g. response
            // times in the 1e9-cycle range), reporting 0 where the
            // true spread is small but nonzero.
            double delta = v - runMean;
            runMean += delta / n;
            m2 += delta * (v - runMean);
        }
    };

    Distribution(StatGroup &parent, std::string name, std::string desc);

    void sample(double v) { m.sample(v); }

    /** The live moments, for kernels that sample through a copy. */
    Moments &moments() { return m; }

    std::uint64_t count() const { return m.n; }
    double sum() const { return m.total; }
    double mean() const { return m.n ? m.total / m.n : 0.0; }
    double minValue() const { return m.n ? m.lo : 0.0; }
    double maxValue() const { return m.n ? m.hi : 0.0; }

    /**
     * Population variance (m2 / n). Welford keeps m2 mathematically
     * nonnegative, but the final `delta * (v - runMean)` product can
     * round to a tiny negative value when the spread is at the limit
     * of double precision; that residue is clamped to 0 here so
     * stddev() can never take sqrt of a negative and return NaN.
     * n < 2 (no spread information) reports 0.
     */
    double
    variance() const
    {
        if (m.n < 2)
            return 0.0;
        double var = m.m2 / m.n;
        return var > 0 ? var : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }

    void accept(StatSink &sink) const override;
    void reset() override;

  private:
    Moments m;
};

/**
 * Fixed-bucket histogram over [0, bucketWidth * numBuckets), with
 * underflow (v < 0) and overflow buckets. Used for FIFO occupancy and
 * latency profiles.
 *
 * Buckets are right-open intervals [i*width, (i+1)*width): a sample
 * landing exactly on a bucket edge counts in the *higher* bucket (the
 * one whose interval starts there). underflow + overflow + the bucket
 * sum always equals count().
 */
class Histogram : public StatBase
{
  public:
    Histogram(StatGroup &parent, std::string name, std::string desc,
              double bucket_width, std::size_t num_buckets);

    void
    sample(double v)
    {
        ++n;
        if (v < 0) {
            // Negative samples are not [0, width) samples; counting
            // them in bins[0] would silently inflate the first bucket.
            ++under;
            return;
        }
        double q = v / width;
        // The negated comparison also routes NaN to overflow; values
        // at or past the last edge must never reach the size_t cast
        // (casting a double >= 2^64 is undefined, not merely wrong).
        if (!(q < static_cast<double>(bins.size()))) {
            ++over;
            return;
        }
        ++bins[static_cast<std::size_t>(q)];
    }

    /**
     * Record @p k samples of the same value @p v, exactly equivalent
     * to k sample(v) calls: every histogram counter is integral, so
     * batching is lossless (unlike Welford moments, which must stay
     * per-sample to keep rounding identical).
     */
    void
    sampleN(double v, std::uint64_t k)
    {
        if (k == 0)
            return;
        n += k;
        if (v < 0) {
            under += k;
            return;
        }
        double q = v / width;
        if (!(q < static_cast<double>(bins.size()))) {
            over += k;
            return;
        }
        bins[static_cast<std::size_t>(q)] += k;
    }

    std::uint64_t count() const { return n; }
    const std::vector<std::uint64_t> &buckets() const { return bins; }
    std::uint64_t underflow() const { return under; }
    std::uint64_t overflow() const { return over; }
    double bucketWidth() const { return width; }

    void accept(StatSink &sink) const override;
    void reset() override;

  private:
    double width;
    std::vector<std::uint64_t> bins;
    std::uint64_t under = 0;
    std::uint64_t over = 0;
    std::uint64_t n = 0;
};

/**
 * A named, nestable collection of statistics. Owning components embed
 * a StatGroup and register their stats against it; the root group of
 * a system walks the whole tree through any StatSink.
 */
class StatGroup
{
  public:
    /** Construct a root group. */
    explicit StatGroup(std::string name);

    /** Construct a child group attached to @p parent. */
    StatGroup(StatGroup &parent, std::string name);

    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return _name; }

    /**
     * Walk this group and all children through @p sink: beginGroup,
     * every registered stat in registration order, every child in
     * creation order, endGroup.
     */
    void accept(StatSink &sink) const;

    /** Reset all stats in this group and its children. */
    void resetAll();

    /** Look up a direct child stat by name; nullptr if absent. */
    const StatBase *find(const std::string &stat_name) const;

    /**
     * Look up a stat by dotted path relative to this group, e.g.\
     * "l1i.misses". Returns nullptr if any path element is missing.
     */
    const StatBase *findPath(const std::string &path) const;

  private:
    friend class StatBase;

    void addStat(StatBase *s);
    void addChild(StatGroup *g);
    void removeChild(StatGroup *g);

    std::string _name;
    StatGroup *parent = nullptr;
    std::vector<StatBase *> statList;
    std::map<std::string, StatBase *> statIndex;
    std::vector<StatGroup *> children;
};

} // namespace indra::stats

#endif // INDRA_SIM_STATS_HH
