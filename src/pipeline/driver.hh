#ifndef MBIAS_PIPELINE_DRIVER_HH
#define MBIAS_PIPELINE_DRIVER_HH

#include <string>

#include "pipeline/figure.hh"
#include "pipeline/options.hh"

namespace mbias::pipeline
{

/**
 * One process-wide Chrome-trace session: starts the global tracer on
 * construction (when @p path is nonempty) and stops + writes the file
 * on destruction.  Campaign/runner spans from every sweep executed in
 * between land in the one file — `--trace` behaves identically for a
 * single figure and for `mbias all`.
 */
class ScopedTraceSession
{
  public:
    explicit ScopedTraceSession(std::string path);
    ~ScopedTraceSession();

    ScopedTraceSession(const ScopedTraceSession &) = delete;
    ScopedTraceSession &operator=(const ScopedTraceSession &) = delete;

  private:
    std::string path_;
};

/** Renders one registered figure with @p opts.  Returns the process
 *  exit code (0 on success). */
int runFigure(const FigureSpec &spec, const PipelineOptions &opts);

/**
 * Renders every registered figure in registry order, printing a
 * `---- <id> ----` section header before each (reproduce_all.sh splits
 * the transcript on it).  Stops at the first failure.
 */
int runEveryFigure(const PipelineOptions &opts);

} // namespace mbias::pipeline

#endif // MBIAS_PIPELINE_DRIVER_HH
