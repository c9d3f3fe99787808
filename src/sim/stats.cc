#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace indra::stats
{

// ---------------------------------------------------------------- StatBase

StatBase::StatBase(StatGroup &parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    parent.addStat(this);
}

// ------------------------------------------------------------------ Scalar

Scalar::Scalar(StatGroup &parent, std::string name, std::string desc)
    : StatBase(parent, std::move(name), std::move(desc))
{
}

void
Scalar::accept(StatSink &sink) const
{
    sink.visitScalar(*this, _value);
}

// ----------------------------------------------------------------- Formula

Formula::Formula(StatGroup &parent, std::string name, std::string desc,
                 Fn fn)
    : StatBase(parent, std::move(name), std::move(desc)), fn(std::move(fn))
{
}

void
Formula::accept(StatSink &sink) const
{
    sink.visitScalar(*this, value());
}

// ------------------------------------------------------------ Distribution

Distribution::Distribution(StatGroup &parent, std::string name,
                           std::string desc)
    : StatBase(parent, std::move(name), std::move(desc))
{
}

void
Distribution::accept(StatSink &sink) const
{
    sink.visitDistribution(*this);
}

void
Distribution::reset()
{
    m = Moments{};
}

// --------------------------------------------------------------- Histogram

Histogram::Histogram(StatGroup &parent, std::string name, std::string desc,
                     double bucket_width, std::size_t num_buckets)
    : StatBase(parent, std::move(name), std::move(desc)),
      width(bucket_width), bins(num_buckets, 0)
{
    panic_if(bucket_width <= 0, "Histogram bucket width must be positive");
    panic_if(num_buckets == 0, "Histogram needs at least one bucket");
}

void
Histogram::accept(StatSink &sink) const
{
    sink.visitHistogram(*this);
}

void
Histogram::reset()
{
    std::fill(bins.begin(), bins.end(), 0);
    under = 0;
    over = 0;
    n = 0;
}

// --------------------------------------------------------------- StatGroup

StatGroup::StatGroup(std::string name) : _name(std::move(name))
{
}

StatGroup::StatGroup(StatGroup &parent_group, std::string name)
    : _name(std::move(name)), parent(&parent_group)
{
    parent->addChild(this);
}

StatGroup::~StatGroup()
{
    if (parent)
        parent->removeChild(this);
}

void
StatGroup::addStat(StatBase *s)
{
    panic_if(statIndex.count(s->name()),
             "duplicate stat '", s->name(), "' in group '", _name, "'");
    statList.push_back(s);
    statIndex[s->name()] = s;
}

void
StatGroup::addChild(StatGroup *g)
{
    children.push_back(g);
}

void
StatGroup::removeChild(StatGroup *g)
{
    children.erase(std::remove(children.begin(), children.end(), g),
                   children.end());
}

void
StatGroup::accept(StatSink &sink) const
{
    sink.beginGroup(*this);
    for (const StatBase *s : statList)
        s->accept(sink);
    for (const StatGroup *g : children)
        g->accept(sink);
    sink.endGroup(*this);
}

void
StatGroup::resetAll()
{
    for (StatBase *s : statList)
        s->reset();
    for (StatGroup *g : children)
        g->resetAll();
}

const StatBase *
StatGroup::find(const std::string &stat_name) const
{
    auto it = statIndex.find(stat_name);
    return it == statIndex.end() ? nullptr : it->second;
}

const StatBase *
StatGroup::findPath(const std::string &path) const
{
    auto dot = path.find('.');
    if (dot == std::string::npos)
        return find(path);
    std::string head = path.substr(0, dot);
    std::string tail = path.substr(dot + 1);
    for (const StatGroup *g : children) {
        if (g->name() == head)
            return g->findPath(tail);
    }
    return nullptr;
}

} // namespace indra::stats
