/**
 * `mbench compare`: the statistics behind `run.py compare`.
 *
 * Reads one comparison per stdin line:
 *
 *     <label> <n> a_1 .. a_n <m> b_1 .. b_m
 *
 * where a (the base) and b (the candidate) are one metric's values
 * from runs of the same workload, listed so that a_i and b_i share a
 * seed.  Prints per line: label, the ratio of medians b/a, and a 95%
 * percentile-bootstrap interval for it (Kalibera & Jones): the
 * per-seed log ratios log(b_i / a_i) are resampled by
 * stats::Engine::bootstrapInterval and the interval is mapped back
 * through exp.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "stats/engine.hh"

namespace mbench
{

namespace
{

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
readSide(std::istringstream &in, std::vector<double> &out)
{
    std::size_t n = 0;
    if (!(in >> n) || n == 0 || n > 100000)
        return false;
    out.resize(n);
    for (double &v : out)
        if (!(in >> v))
            return false;
    return true;
}

} // namespace

int
compareMain()
{
    const mbias::stats::Engine engine;
    std::string line;
    int bad = 0;
    while (std::getline(std::cin, line)) {
        std::istringstream in(line);
        std::string label;
        std::vector<double> a, b;
        if (!(in >> label) || !readSide(in, a) || !readSide(in, b)) {
            std::fprintf(stderr, "mbench compare: malformed line: %s\n",
                         line.c_str());
            ++bad;
            continue;
        }
        const double ma = median(a), mb = median(b);
        std::vector<double> logs;
        for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
            if (a[i] > 0.0 && b[i] > 0.0)
                logs.push_back(std::log(b[i] / a[i]));
        double lo = NAN, hi = NAN;
        if (logs.size() >= 2) {
            const auto ci = engine.bootstrapInterval(logs, 42, 2000, 0.95);
            lo = std::exp(ci.lower);
            hi = std::exp(ci.upper);
        }
        std::printf("%s %.6g %.6g %.6g\n", label.c_str(),
                    ma != 0.0 ? mb / ma : NAN, lo, hi);
    }
    return bad ? 2 : 0;
}

} // namespace mbench
