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
 * Sample distribution: tracks count, sum, min, max and the standard
 * deviation. The spread is kept as exact shifted sums, Σ(v − K) and
 * Σ(v − K)² around the first sample K, so it survives a large mean
 * with a tiny variance (response times in the 1e9-cycle range) where
 * E[x²] − E[x]² cancels to 0, and a sample costs no divide.
 */
class Distribution : public StatBase
{
  public:
    /**
     * The running moments of one sample stream: count, total, min,
     * max and the shifted sums s1 = Σ(v − shift) and s2 = Σ(v − shift)²,
     * where shift is the stream's first sample. A sample is one
     * subtract, one multiply and three adds; mean and variance are
     * derived when read. Distribution::sample forwards to sample(),
     * and a batch kernel (MemHierarchy::pageTransfer) copies the
     * moments into a local, samples every value in order (a repeating
     * run of values through sampleRepeat()) and stores them back.
     *
     * For integer samples every sum is an exact integer while it
     * stays below 2^53 in magnitude, so within that bound the order
     * of the samples cannot change a bit; sampleRepeat() relies on it
     * to charge a repeating run in closed form.
     */
    struct Moments
    {
        std::uint64_t n = 0;
        double total = 0;
        double lo = 0;
        double hi = 0;
        double shift = 0;  //!< K, the first sample
        double s1 = 0;     //!< Σ(v − K)
        double s2 = 0;     //!< Σ(v − K)²

        void
        sample(double v)
        {
            if (n == 0) {
                lo = hi = shift = v;
            } else {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            ++n;
            total += v;
            const double d = v - shift;
            s1 += d;
            s2 += d * d;
        }

        /**
         * sample() each of the @p k integer values @p v, in order,
         * @p reps times over, bit for bit. The first pass samples
         * them one by one. The other reps − 1 passes are charged in
         * closed form (count, total, s1 and s2 each grow by reps − 1
         * times one pass's increment) when the start state and the
         * values are integers and every partial sum the loop would
         * form stays below 2^53 in magnitude: then every add of the
         * loop is exact, and so is the closed form. Otherwise the
         * passes are sampled one by one. A second pass over the same
         * values cannot move the min or max.
         */
        void
        sampleRepeat(const std::uint64_t *v, std::size_t k,
                     std::uint64_t reps)
        {
            if (reps == 0)
                return;
            for (std::size_t i = 0; i < k; ++i)
                sample(static_cast<double>(v[i]));
            const std::uint64_t m = reps - 1;
            if (m == 0)
                return;

            // One pass's increments, and bounds on every partial sum:
            // all terms are integers, so nonnegative sums only grow
            // and a rounded one can never come out below 2^53.
            double sv = 0, sd = 0, sd_abs = 0, sd2 = 0;
            for (std::size_t i = 0; i < k; ++i) {
                const double x = static_cast<double>(v[i]);
                const double d = x - shift;
                sv += x;
                sd += d;
                sd_abs += std::abs(d);
                sd2 += d * d;
            }
            const double reps_left = static_cast<double>(m);
            constexpr double exact = 9007199254740992.0;  // 2^53
            if (isInteger(shift) && isInteger(total) && isInteger(s1) &&
                isInteger(s2) &&
                std::abs(total) + reps_left * sv < exact &&
                std::abs(s1) + reps_left * sd_abs < exact &&
                s2 + reps_left * sd2 < exact) {
                n += k * m;
                total += reps_left * sv;
                s1 += reps_left * sd;
                s2 += reps_left * sd2;
                return;
            }
            for (std::uint64_t r = 0; r < m; ++r) {
                for (std::size_t i = 0; i < k; ++i)
                    sample(static_cast<double>(v[i]));
            }
        }

      private:
        static bool isInteger(double x) { return std::trunc(x) == x; }
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
     * Population variance, (s2 − s1²/n) / n. The two terms can round
     * to a tiny negative difference when the spread is at the limit of
     * double precision; that residue is clamped to 0 here so stddev()
     * can never take sqrt of a negative and return NaN. n < 2 (no
     * spread information) reports 0.
     */
    double
    variance() const
    {
        if (m.n < 2)
            return 0.0;
        const double count = static_cast<double>(m.n);
        const double var = (m.s2 - m.s1 * m.s1 / count) / count;
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
     * batching is lossless (as Distribution::Moments::sampleRepeat is
     * for integer samples inside its 2^53 bound).
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
