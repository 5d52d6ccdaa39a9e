#ifndef MBIAS_BENCH_FIGURES_FIGURES_HH
#define MBIAS_BENCH_FIGURES_FIGURES_HH

#include "pipeline/figure.hh"

namespace mbias::figures
{

/**
 * Registers every figure/table of the reproduction with the pipeline
 * registry, in presentation order (fig1..fig11, table1..table3, then
 * the mechanism ablation).  Idempotent per process — callers at every
 * entry point (the mbias CLI, perfbench's mbench) just call it once
 * before touching the registry.
 *
 * Registration is an explicit call rather than static initializers so
 * it survives static-library dead-stripping.
 */
void registerAll();

/** @name One maker per figure/table (definitions in figN.cc etc.) @{ */
pipeline::FigureSpec fig1();
pipeline::FigureSpec fig2();
pipeline::FigureSpec fig3();
pipeline::FigureSpec fig4();
pipeline::FigureSpec fig5();
pipeline::FigureSpec fig6();
pipeline::FigureSpec fig7();
pipeline::FigureSpec fig8();
pipeline::FigureSpec fig9();
pipeline::FigureSpec fig10();
pipeline::FigureSpec fig11();
pipeline::FigureSpec fig12();
pipeline::FigureSpec fig13();
pipeline::FigureSpec table1();
pipeline::FigureSpec table2();
pipeline::FigureSpec table3();
pipeline::FigureSpec ablation();
pipeline::FigureSpec corpus();
/** @} */

} // namespace mbias::figures

#endif // MBIAS_BENCH_FIGURES_FIGURES_HH
