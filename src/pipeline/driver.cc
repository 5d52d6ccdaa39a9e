#include "pipeline/driver.hh"

#include <cstdio>

#include "base/logging.hh"
#include "obs/trace.hh"
#include "pipeline/context.hh"

namespace mbias::pipeline
{

ScopedTraceSession::ScopedTraceSession(std::string path)
    : path_(std::move(path))
{
    if (!path_.empty())
        obs::Tracer::global().start();
}

ScopedTraceSession::~ScopedTraceSession()
{
    if (path_.empty())
        return;
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.stop();
    if (!tracer.writeTo(path_))
        mbias_warn("cannot write trace to ", path_);
    else
        inform("trace written to " + path_ +
               " (open in Perfetto: https://ui.perfetto.dev)");
}

int
runFigure(const FigureSpec &spec, const PipelineOptions &opts)
{
    obs::ScopedSpan span("pipeline.figure", "pipeline");
    span.arg("figure", spec.id);
    FigureContext ctx(opts);
    spec.render(ctx);
    return 0;
}

int
runEveryFigure(const PipelineOptions &opts)
{
    for (const FigureSpec &spec : FigureRegistry::instance().all()) {
        std::printf("---- %s ----\n", spec.id.c_str());
        std::fflush(stdout);
        if (const int rc = runFigure(spec, opts))
            return rc;
    }
    return 0;
}

} // namespace mbias::pipeline
