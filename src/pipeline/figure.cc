#include "pipeline/figure.hh"

#include "base/logging.hh"

namespace mbias::pipeline
{

FigureRegistry &
FigureRegistry::instance()
{
    static FigureRegistry registry;
    return registry;
}

void
FigureRegistry::add(FigureSpec spec)
{
    mbias_assert(!spec.id.empty(), "figure spec needs an id");
    mbias_assert(spec.render, "figure spec needs a render function");
    mbias_assert(!find(spec.id), "duplicate figure id '", spec.id, "'");
    specs_.push_back(std::move(spec));
}

const FigureSpec *
FigureRegistry::find(const std::string &id) const
{
    for (const auto &s : specs_)
        if (s.id == id)
            return &s;
    return nullptr;
}

} // namespace mbias::pipeline
