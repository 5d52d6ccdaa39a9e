#include "obs/heatmap.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mbias::obs
{

namespace
{

double
maxAbs(const std::vector<double> &values)
{
    double m = 0.0;
    for (double v : values)
        m = std::max(m, std::fabs(v));
    return m;
}

std::string
header(const std::string &title, std::size_t cells, double max_abs)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s  [%zu cells, max |cell| = %.0f]\n",
                  title.c_str(), cells, max_abs);
    return buf;
}

/** Renders rows of cells through @p glyph; rows are prefixed with the
 *  first cell's index so a hot cell can be named from the picture. */
template <typename GlyphFn>
std::string
renderRows(const std::vector<double> &values, unsigned columns,
           GlyphFn glyph)
{
    std::string out;
    char buf[32];
    for (std::size_t row = 0; row < values.size(); row += columns) {
        std::snprintf(buf, sizeof buf, "  [%4zu] ", row);
        out += buf;
        const std::size_t end = std::min(values.size(),
                                         row + std::size_t(columns));
        for (std::size_t i = row; i < end; ++i)
            out += glyph(values[i]);
        out += "\n";
    }
    return out;
}

} // namespace

std::string
asciiHeatmapSigned(const std::string &title,
                   const std::vector<double> &values, unsigned columns)
{
    static const char kPos[] = {'+', '*', '#'};
    static const char kNeg[] = {'-', '=', '%'};
    const double scale = maxAbs(values);
    std::string out = header(title, values.size(), scale);
    out += renderRows(values, columns, [scale](double v) {
        if (v == 0.0 || scale <= 0.0)
            return '.';
        const int level = std::min(
            2, int(std::floor(std::fabs(v) / scale * 3.0 - 1e-9)));
        return v > 0.0 ? kPos[level] : kNeg[level];
    });
    out += "  legend: increase .<+<*<#   decrease .<-<=<%   "
           "('.' = no change)\n";
    return out;
}

} // namespace mbias::obs
