/**
 * @file
 * Reproduces Fig. 5: the adaptive QPU weighting of 7 devices over 40
 * hours with weights bound to [0.5, 1.5]. Each hour, every device's
 * P_correct is recomputed from its transpiled Fig. 8 circuit and its
 * reported calibration; the ensemble normalizer rescales them into the
 * bound. Recalibrations and incidents reshuffle the ranking live.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/weighting.h"
#include "device/backend.h"
#include "device/catalog.h"
#include "vqa/expectation.h"
#include "vqa/problem.h"

int
main()
{
    using namespace eqc;
    bench::banner(
        "Fig. 5: QPU weighting over 40 hours, bounds [0.5, 1.5]");

    const std::vector<const char *> names = {
        "ibmq_belem", "ibmq_quito", "ibmq_casablanca", "ibmq_toronto",
        "ibmq_manila", "ibmq_bogota", "ibmq_lima"};

    VqaProblem problem = makeHeisenbergVqe();
    ExpectationEstimator est(problem.hamiltonian, problem.ansatz);

    struct Entry
    {
        Device device;
        SimulatedQpu qpu;
        std::vector<TranspiledCircuit> compiled;
    };
    std::vector<Entry> entries;
    for (const char *n : names) {
        Device d = deviceByName(n);
        auto compiled = est.compileFor(d.coupling);
        entries.push_back({d, SimulatedQpu(d, 23), std::move(compiled)});
    }

    std::printf("%-6s", "hour");
    for (const char *n : names)
        std::printf(" %13s", std::string(n).substr(5, 13).c_str());
    std::printf("\n");

    for (int hour = 0; hour <= 40; ++hour) {
        WeightNormalizer norm({0.5, 1.5});
        for (std::size_t i = 0; i < entries.size(); ++i) {
            Entry &e = entries[i];
            const std::shared_ptr<const CalibrationSnapshot> rep =
                e.qpu.reportedCalibration(static_cast<double>(hour));
            double sum = 0.0;
            for (const TranspiledCircuit &tc : e.compiled)
                sum += pCorrect(circuitQuality(tc), *rep);
            norm.update(static_cast<int>(i),
                        sum / static_cast<double>(e.compiled.size()));
        }
        std::printf("%-6d", hour);
        for (std::size_t i = 0; i < entries.size(); ++i)
            std::printf(" %13.3f", norm.weightFor(static_cast<int>(i)));
        std::printf("\n");
    }

    bench::heading("interpretation");
    std::printf(
        "Weights react to recalibration events (quality factor redraw)\n"
        "and to incidents: a device pinned at 0.5 contributes half-size\n"
        "gradient steps until its next calibration rescues it.\n");
    return 0;
}
