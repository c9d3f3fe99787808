#include "obs/stat_sinks.hh"

#include <iomanip>
#include <sstream>

#include "obs/json.hh"

namespace indra::obs
{

// --------------------------------------------------------- PrefixedStatSink

void
PrefixedStatSink::beginGroup(const stats::StatGroup &group)
{
    lengths.push_back(_prefix.size());
    _prefix += group.name();
    _prefix += '.';
}

void
PrefixedStatSink::endGroup(const stats::StatGroup &)
{
    _prefix.resize(lengths.back());
    lengths.pop_back();
}

// ------------------------------------------------------------- TextStatSink

void
TextStatSink::line(const std::string &key, double value,
                   const std::string &desc)
{
    std::ostringstream val;
    val << std::setprecision(12) << value;
    out << std::left << std::setw(44) << key << " " << std::right
        << std::setw(16) << val.str();
    if (!desc.empty())
        out << "  # " << desc;
    out << "\n";
}

void
TextStatSink::visitScalar(const stats::StatBase &stat, double value)
{
    line(prefix() + stat.name(), value, stat.desc());
}

void
TextStatSink::visitDistribution(const stats::Distribution &dist)
{
    line(prefix() + dist.name() + ".count",
         static_cast<double>(dist.count()), dist.desc());
    line(prefix() + dist.name() + ".mean", dist.mean(), "");
    line(prefix() + dist.name() + ".min", dist.minValue(), "");
    line(prefix() + dist.name() + ".max", dist.maxValue(), "");
    line(prefix() + dist.name() + ".stddev", dist.stddev(), "");
}

void
TextStatSink::visitHistogram(const stats::Histogram &hist)
{
    line(prefix() + hist.name() + ".count",
         static_cast<double>(hist.count()), hist.desc());
    const auto &bins = hist.buckets();
    double width = hist.bucketWidth();
    for (std::size_t i = 0; i < bins.size(); ++i) {
        if (bins[i] == 0)
            continue;
        std::ostringstream key;
        key << prefix() << hist.name() << ".bucket[" << i * width << ","
            << (i + 1) * width << ")";
        line(key.str(), static_cast<double>(bins[i]), "");
    }
    if (hist.underflow())
        line(prefix() + hist.name() + ".underflow",
             static_cast<double>(hist.underflow()), "");
    if (hist.overflow())
        line(prefix() + hist.name() + ".overflow",
             static_cast<double>(hist.overflow()), "");
}

// ------------------------------------------------------------- JsonStatSink

void
JsonStatSink::member(const std::string &key)
{
    if (!firstInScope.back())
        out << ",";
    firstInScope.back() = false;
    jsonString(out, key);
    out << ":";
}

void
JsonStatSink::beginGroup(const stats::StatGroup &group)
{
    if (firstInScope.empty()) {
        // Outermost object of the document, keyed by the root group.
        out << "{";
        firstInScope.push_back(true);
    }
    member(group.name());
    out << "{";
    firstInScope.push_back(true);
}

void
JsonStatSink::endGroup(const stats::StatGroup &)
{
    out << "}";
    firstInScope.pop_back();
    if (firstInScope.size() == 1) {
        out << "}";
        firstInScope.pop_back();
    }
}

void
JsonStatSink::visitScalar(const stats::StatBase &stat, double value)
{
    member(stat.name());
    jsonNumber(out, value);
}

void
JsonStatSink::visitDistribution(const stats::Distribution &dist)
{
    member(dist.name());
    out << "{\"count\":" << dist.count() << ",\"mean\":";
    jsonNumber(out, dist.mean());
    out << ",\"min\":";
    jsonNumber(out, dist.minValue());
    out << ",\"max\":";
    jsonNumber(out, dist.maxValue());
    out << ",\"stddev\":";
    jsonNumber(out, dist.stddev());
    out << "}";
}

void
JsonStatSink::visitHistogram(const stats::Histogram &hist)
{
    member(hist.name());
    out << "{\"count\":" << hist.count() << ",\"bucket_width\":";
    jsonNumber(out, hist.bucketWidth());
    out << ",\"buckets\":[";
    const auto &bins = hist.buckets();
    for (std::size_t i = 0; i < bins.size(); ++i) {
        if (i)
            out << ",";
        out << bins[i];
    }
    out << "],\"underflow\":" << hist.underflow()
        << ",\"overflow\":" << hist.overflow() << "}";
}

} // namespace indra::obs
