#ifndef MBIAS_HEATMAP_HH
#define MBIAS_HEATMAP_HH

#include <string>
#include <vector>

namespace mbias::obs
{

/**
 * Deterministic ASCII heatmaps for per-set / per-entry attribution
 * vectors.  One character per cell, @p columns cells per row, scaled
 * to the vector's own maximum — purely a function of the input
 * values, so renders are byte-stable and golden-pinnable.
 */

/**
 * Unsigned magnitudes (touch/miss counts).  Glyph ramp, low to high:
 * ` .:-=+*#%@` — ' ' is exactly zero, '@' is the maximum cell.
 */
std::string asciiHeatmap(const std::string &title,
                         const std::vector<double> &values,
                         unsigned columns = 32);

/**
 * Signed deltas (B − A per set).  '.' is exactly zero; increases ramp
 * `+` `*` `#` and decreases ramp `-` `=` `%`, each in thirds of the
 * largest |cell|.  A legend line is included in the render.
 */
std::string asciiHeatmapSigned(const std::string &title,
                               const std::vector<double> &values,
                               unsigned columns = 32);

} // namespace mbias::obs

#endif // MBIAS_HEATMAP_HH
