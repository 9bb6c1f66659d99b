/**
 * @file
 * Shared test helpers: launching EQC jobs through the Runtime and
 * generating random circuits.
 */

#ifndef EQC_TESTS_SUPPORT_RUN_HELPERS_H
#define EQC_TESTS_SUPPORT_RUN_HELPERS_H

#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "core/runtime.h"

namespace eqc {

/** Run one job on the deterministic "virtual" engine. */
inline EqcTrace
runVirtual(const VqaProblem &problem, const std::vector<Device> &devices,
           const EqcOptions &options)
{
    Runtime runtime;
    EqcOptions opts = options;
    opts.engine = "virtual";
    return runtime.submit(problem, devices, opts).take();
}

/** Random circuit over the full gate vocabulary. */
inline QuantumCircuit
randomCircuit(Rng &rng, int numQubits, int numGates, int numParams,
              bool symbolic)
{
    const GateType oneQ[] = {GateType::X,   GateType::Y,  GateType::Z,
                             GateType::H,   GateType::S,  GateType::SDG,
                             GateType::T,   GateType::TDG, GateType::SX,
                             GateType::RX,  GateType::RY, GateType::RZ,
                             GateType::ID};
    const GateType twoQ[] = {GateType::CX, GateType::CZ, GateType::SWAP,
                             GateType::RZZ};
    QuantumCircuit c(numQubits, numParams);
    for (int g = 0; g < numGates; ++g) {
        const bool two = numQubits > 1 && rng.uniform() < 0.35;
        GateType type =
            two ? twoQ[rng.uniformInt(0, 3)] : oneQ[rng.uniformInt(0, 12)];
        std::vector<int> qubits;
        int a = rng.uniformInt(0, numQubits - 1);
        qubits.push_back(a);
        if (two) {
            int b = a;
            while (b == a)
                b = rng.uniformInt(0, numQubits - 1);
            qubits.push_back(b);
        }
        std::vector<ParamExpr> params;
        for (int p = 0; p < gateParamCount(type); ++p) {
            if (symbolic && numParams > 0 && rng.uniform() < 0.5) {
                params.push_back(ParamExpr::symbol(
                    rng.uniformInt(0, numParams - 1),
                    rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3)));
            } else {
                params.push_back(
                    ParamExpr::constant(rng.uniform(-3.1, 3.1)));
            }
        }
        c.addGate(type, qubits, params);
        if (rng.uniform() < 0.05)
            c.barrier();
    }
    return c;
}

} // namespace eqc

#endif // EQC_TESTS_SUPPORT_RUN_HELPERS_H
