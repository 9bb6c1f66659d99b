/**
 * @file
 * Reproduces Fig. 4: validation of the Eq. 2 analytic quality model
 * against observed 5-qubit GHZ error rates across devices and
 * calibration ages. The paper reports a linear fit of y=0.86x+0.05,
 * R^2 = 0.605 and Pearson r = 0.784 (p = 1.28e-7), with stale
 * calibrations under-predicting the observed error — exactly the
 * behaviour our drift model produces, since the model sees only the
 * *reported* calibration while the backend runs the *actual* one.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "circuit/ansatz.h"
#include "common/stats.h"
#include "core/weighting.h"
#include "device/backend.h"
#include "device/catalog.h"

int
main()
{
    using namespace eqc;
    bench::banner("Fig. 4: calculated vs observed 5-qubit GHZ error");

    QuantumCircuit ghz = ghzCircuit(5);
    std::vector<double> calculated, observed;

    std::printf("%-18s %10s %12s %12s %9s\n", "device", "age(h)",
                "calculated", "observed", "incident");
    for (const char *name :
         {"ibmq_lima", "ibmqx2", "ibmq_belem", "ibmq_quito",
          "ibmq_manila", "ibmq_bogota", "ibmq_casablanca",
          "ibmq_santiago"}) {
        Device d = deviceByName(name);
        SimulatedQpu qpu(d, 17);
        TranspiledCircuit tc = transpile(ghz, d.coupling);
        Rng rng = Rng(17).fork(std::string("fig4:") + name);
        // Sample several times across the calibration cycle: fresh (one
        // minute) through stale (up to ~22 hours).
        for (double age : {0.02, 4.0, 9.0, 14.0, 19.0, 22.0}) {
            double calTime = qpu.tracker().lastCalibrationTime(30.0);
            double t = calTime + age;
            // Calculated: 1 - P_correct from the *reported* calibration.
            double calc = 1.0 - pCorrect(circuitQuality(tc),
                                         *qpu.reportedCalibration(t));
            // Observed: fraction of non-GHZ outcomes from execution
            // under the *actual* (drifted) noise.
            JobResult r = qpu.execute(tc, {}, 8192, t, rng, false);
            uint64_t all1 = 0;
            for (int l = 0; l < 5; ++l)
                all1 |= uint64_t{1} << tc.logicalToCompact[l];
            double good = r.probabilities[0] + r.probabilities[all1];
            double obs = 1.0 - good;
            calculated.push_back(calc);
            observed.push_back(obs);
            std::printf("%-18s %10.2f %12.4f %12.4f %9s\n", name, age,
                        calc, obs,
                        qpu.tracker().inIncident(t) ? "yes" : "no");
        }
    }

    bench::heading("model validation (paper: y=0.86x+0.05, R^2=0.605, "
                   "r=0.784, p=1.28e-7)");
    LinearFit fit = linearFit(calculated, observed);
    double r = pearson(calculated, observed);
    std::printf("samples:            %zu\n", calculated.size());
    std::printf("linear fit:         y = %.3fx + %.3f\n", fit.slope,
                fit.intercept);
    std::printf("R^2:                %.3f\n", fit.r2);
    std::printf("Pearson r:          %.3f\n", r);
    std::printf("two-tailed p-value: %.3g\n",
                pearsonPValue(r, calculated.size()));
    return 0;
}
