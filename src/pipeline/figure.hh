#ifndef MBIAS_PIPELINE_FIGURE_HH
#define MBIAS_PIPELINE_FIGURE_HH

#include <functional>
#include <string>
#include <vector>

namespace mbias::pipeline
{

class FigureContext;

/**
 * One registered figure/table of the reproduction: an identifier, a
 * one-line description for `mbias list`, and a render stage.  The
 * render function declares each factor sweep as a
 * campaign::CampaignSpec and runs it through FigureContext::run() on
 * the campaign engine — so every figure gains `--jobs`, the
 * result/artifact caches, obs metrics/traces, and provenance without
 * owning any of that machinery.
 */
struct FigureSpec
{
    enum class Kind
    {
        Figure,
        Table,
        Ablation,
    };

    /** Registry id: "fig1".."fig11", "table1".."table3", "ablation". */
    std::string id;

    Kind kind = Kind::Figure;

    /** One line for `mbias list`. */
    std::string title;

    /** Renders the figure to stdout, byte-identical to
     *  tests/golden/<id>.txt at default options. */
    std::function<void(FigureContext &)> render;
};

/**
 * The process-wide table of registered figures.  Figure definitions
 * live in bench/figures/ and are registered by an explicit
 * registerAll() call from each entry point, `mbias` and perfbench's
 * mbench (explicit registration — not static initializers — so
 * registration survives static-library dead-stripping).
 */
class FigureRegistry
{
  public:
    static FigureRegistry &instance();

    /** Registers @p spec; duplicate ids are a bug. */
    void add(FigureSpec spec);

    /** Looks up by exact id ("fig5", "table2", "ablation"); nullptr
     *  when unknown. */
    const FigureSpec *find(const std::string &id) const;

    /** All specs in registration (= presentation) order. */
    const std::vector<FigureSpec> &all() const { return specs_; }

  private:
    std::vector<FigureSpec> specs_;
};

} // namespace mbias::pipeline

#endif // MBIAS_PIPELINE_FIGURE_HH
