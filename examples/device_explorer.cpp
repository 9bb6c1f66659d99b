/**
 * @file
 * Tooling example: inspect the device catalog the way EQC's master node
 * sees it — topology, calibration, transpilation cost for a target
 * circuit, the Eq. 2 quality score, and how that score degrades as a
 * calibration goes stale.
 *
 * Build & run:  ./build/examples/device_explorer
 */

#include <cstdio>

#include "circuit/ansatz.h"
#include "core/weighting.h"
#include "device/backend.h"
#include "device/catalog.h"

int
main()
{
    using namespace eqc;

    QuantumCircuit target = hardwareEfficientAnsatz(4);
    std::printf("target circuit: the paper's Fig. 8 VQE ansatz "
                "(4 qubits, 16 parameters)\n\n");

    std::printf("%-18s %-16s %5s %6s %4s %4s %8s %10s\n", "device",
                "topology", "deg", "swaps", "G2", "CD", "dur(us)",
                "P_correct");
    for (const Device &d : ibmqCatalog()) {
        TranspiledCircuit tc = transpile(target, d.coupling);
        double p = pCorrect(circuitQuality(tc), d.baseCalibration);
        double dur = circuitDurationUs(tc.compact, d.baseCalibration,
                                       tc.compactToPhysical);
        std::printf("%-18s %-16s %5.2f %6d %4d %4d %8.2f %10.4f\n",
                    d.name.c_str(), d.topologyName.c_str(),
                    d.coupling.averageDegree(), tc.swapCount,
                    tc.counts.g2, tc.criticalDepth, dur, p);
    }

    // How does a device's quality score evolve over three days?
    std::printf("\nP_correct over 72 hours (reported calibration), "
                "ibmq_casablanca vs ibmq_bogota:\n");
    std::printf("%-8s %14s %14s\n", "hour", "casablanca", "bogota");
    Device casa = deviceByName("ibmq_casablanca");
    Device bogota = deviceByName("ibmq_bogota");
    SimulatedQpu qCasa(casa, 5), qBogota(bogota, 5);
    TranspiledCircuit tCasa = transpile(target, casa.coupling);
    TranspiledCircuit tBogota = transpile(target, bogota.coupling);
    for (int h = 0; h <= 72; h += 6) {
        double pc = pCorrect(circuitQuality(tCasa),
                             *qCasa.reportedCalibration(h));
        double pb = pCorrect(circuitQuality(tBogota),
                             *qBogota.reportedCalibration(h));
        std::printf("%-8d %14.4f %14.4f\n", h, pc, pb);
    }

    std::printf("\nactual vs reported CX error on ibmq_casablanca "
                "(the gap is what Fig. 4's outliers are made of):\n");
    std::printf("%-8s %12s %12s %10s\n", "hour", "reported", "actual",
                "incident");
    for (int h = 0; h <= 72; h += 6) {
        std::printf("%-8d %11.3f%% %11.3f%% %10s\n", h,
                    100.0 * qCasa.reportedCalibration(h)->avgCxError(),
                    100.0 * qCasa.tracker().actual(h).avgCxError(),
                    qCasa.tracker().inIncident(h) ? "yes" : "no");
    }
    return 0;
}
