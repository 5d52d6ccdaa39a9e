#ifndef MBIAS_HEATMAP_HH
#define MBIAS_HEATMAP_HH

#include <string>
#include <vector>

namespace mbias::obs
{

/**
 * Deterministic ASCII heatmap of a per-set / per-entry attribution
 * delta vector (B − A per set).  One character per cell, @p columns
 * cells per row, scaled to the vector's own largest |cell| — purely a
 * function of the input values, so renders are byte-stable and
 * golden-pinnable.  '.' is exactly zero; increases ramp
 * `+` `*` `#` and decreases ramp `-` `=` `%`, each in thirds of the
 * largest |cell|.  A legend line is included in the render.
 */
std::string asciiHeatmapSigned(const std::string &title,
                               const std::vector<double> &values,
                               unsigned columns = 32);

} // namespace mbias::obs

#endif // MBIAS_HEATMAP_HH
