/**
 * @file
 * Gate-fusion pass tests: randomized equivalence of fused vs unfused
 * programs on both the statevector and density-matrix paths, structural
 * guarantees of the NoisePreserving mode, and symbolic re-binding.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuit/ansatz.h"
#include "quantum/density_matrix.h"
#include "quantum/statevector.h"
#include "sim/fusion.h"
#include "support/run_helpers.h"
#include "transpile/transpiler.h"

namespace {

using namespace eqc;

/** Reference: apply every gate of @p c one at a time. */
void
applyRaw(const QuantumCircuit &c, const std::vector<double> &params,
         Statevector &sv)
{
    for (const GateOp &op : c.ops()) {
        if (op.type == GateType::MEASURE || op.type == GateType::BARRIER)
            continue;
        std::vector<double> angles;
        for (const ParamExpr &p : op.params)
            angles.push_back(p.evaluate(params));
        std::vector<int> qubits{op.qubits[0]};
        if (op.arity() == 2)
            qubits.push_back(op.qubits[1]);
        sv.applyGate(gateMatrix(op.type, angles), qubits);
    }
}

void
applyRaw(const QuantumCircuit &c, const std::vector<double> &params,
         DensityMatrix &dm)
{
    for (const GateOp &op : c.ops()) {
        if (op.type == GateType::MEASURE || op.type == GateType::BARRIER)
            continue;
        std::vector<double> angles;
        for (const ParamExpr &p : op.params)
            angles.push_back(p.evaluate(params));
        std::vector<int> qubits{op.qubits[0]};
        if (op.arity() == 2)
            qubits.push_back(op.qubits[1]);
        dm.applyUnitary(gateMatrix(op.type, angles), qubits);
    }
}

double
maxAmpDiff(const Statevector &a, const Statevector &b)
{
    double m = 0.0;
    for (uint64_t i = 0; i < a.dim(); ++i)
        m = std::max(m, std::abs(a.amplitude(i) - b.amplitude(i)));
    return m;
}

double
maxElemDiff(const DensityMatrix &a, const DensityMatrix &b)
{
    double m = 0.0;
    for (uint64_t r = 0; r < a.dim(); ++r)
        for (uint64_t c = 0; c < a.dim(); ++c)
            m = std::max(m, std::abs(a.element(r, c) - b.element(r, c)));
    return m;
}

TEST(Fusion, RandomizedStatevectorEquivalence)
{
    Rng rng(11);
    for (int rep = 0; rep < 30; ++rep) {
        const int n = rng.uniformInt(1, 5);
        QuantumCircuit c =
            randomCircuit(rng, n, rng.uniformInt(5, 60), 0, false);
        for (FusionMode mode :
             {FusionMode::Full, FusionMode::NoisePreserving}) {
            FusedProgram prog = fuseForSimulation(c, mode);
            Statevector ref(n), fused(n);
            applyRaw(c, {}, ref);
            applyFusedProgram(prog, {}, fused);
            EXPECT_NEAR(maxAmpDiff(ref, fused), 0.0, 1e-10)
                << "rep " << rep;
        }
    }
}

TEST(Fusion, RandomizedDensityMatrixEquivalence)
{
    Rng rng(22);
    for (int rep = 0; rep < 15; ++rep) {
        const int n = rng.uniformInt(1, 4);
        QuantumCircuit c =
            randomCircuit(rng, n, rng.uniformInt(5, 40), 0, false);
        for (FusionMode mode :
             {FusionMode::Full, FusionMode::NoisePreserving}) {
            FusedProgram prog = fuseForSimulation(c, mode);
            DensityMatrix ref(n), fused(n);
            applyRaw(c, {}, ref);
            applyFusedProgram(prog, {}, fused);
            EXPECT_NEAR(maxElemDiff(ref, fused), 0.0, 1e-10)
                << "rep " << rep;
        }
    }
}

TEST(Fusion, SymbolicRebindMatchesReference)
{
    Rng rng(33);
    for (int rep = 0; rep < 10; ++rep) {
        const int n = rng.uniformInt(2, 4);
        const int np = 4;
        QuantumCircuit c =
            randomCircuit(rng, n, rng.uniformInt(10, 40), np, true);
        FusedProgram prog = fuseForSimulation(c, FusionMode::Full);
        for (int bind = 0; bind < 3; ++bind) {
            std::vector<double> params;
            for (int p = 0; p < np; ++p)
                params.push_back(rng.uniform(-3.0, 3.0));
            Statevector ref(n), fused(n);
            applyRaw(c, params, ref);
            applyFusedProgram(prog, params, fused);
            EXPECT_NEAR(maxAmpDiff(ref, fused), 0.0, 1e-10)
                << "rep " << rep << " bind " << bind;
        }
    }
}

TEST(Fusion, NoisePreservingKeepsOnePhysicalGatePerOp)
{
    Rng rng(44);
    QuantumCircuit c = randomCircuit(rng, 4, 80, 0, false);
    FusedProgram prog =
        fuseForSimulation(c, FusionMode::NoisePreserving);

    // Count physical (non-virtual, non-ID) source gates.
    std::size_t physical = 0;
    for (const GateOp &op : c.ops()) {
        if (op.type == GateType::MEASURE ||
            op.type == GateType::BARRIER || op.type == GateType::ID)
            continue;
        if (!isVirtualGate(op.type))
            ++physical;
    }
    std::size_t physicalOps = 0;
    for (const FusedOp &op : prog.ops) {
        std::size_t physTerms = 0;
        for (int ti = op.termBegin; ti < op.termEnd; ++ti)
            if (!isVirtualGate(prog.terms[ti].type))
                ++physTerms;
        EXPECT_LE(physTerms, std::size_t{1});
        if (physTerms == 1) {
            ++physicalOps;
            // The noise carrier is the physical constituent, and by
            // input-side-only folding it is the last term.
            EXPECT_TRUE(op.primary ==
                        prog.terms[op.termEnd - 1].type);
        }
    }
    EXPECT_EQ(physicalOps, physical);
}

TEST(Fusion, FusesTranspiledAnsatz)
{
    // The transpiled hardware-efficient ansatz is the shape the
    // backend actually executes: RZ/SX runs feeding CX gates.
    QuantumCircuit ansatz = hardwareEfficientAnsatz(4);
    TranspiledCircuit tc = transpile(ansatz, CouplingMap::line(4));
    FusedProgram full =
        fuseForSimulation(tc.compact, FusionMode::Full);
    FusedProgram noisy =
        fuseForSimulation(tc.compact, FusionMode::NoisePreserving);

    ASSERT_GT(full.sourceGates, std::size_t{0});
    // Full fusion must cut the op count substantially (RZ/SX runs plus
    // 1q-into-CX absorption), NoisePreserving at least folds the RZs.
    EXPECT_LT(full.ops.size(), full.sourceGates / 2);
    EXPECT_LT(noisy.ops.size(), noisy.sourceGates);

    // And both stay equivalent to the raw circuit.
    std::vector<double> params;
    for (int i = 0; i < tc.compact.numParams(); ++i)
        params.push_back(0.3 + 0.1 * i);
    Statevector ref(tc.compact.numQubits());
    applyRaw(tc.compact, params, ref);
    for (const FusedProgram *prog : {&full, &noisy}) {
        Statevector fused(tc.compact.numQubits());
        applyFusedProgram(*prog, params, fused);
        EXPECT_NEAR(maxAmpDiff(ref, fused), 0.0, 1e-10);
    }
}

TEST(Fusion, DiagonalRunsStayDiagonal)
{
    QuantumCircuit c(3, 0);
    c.rz(0, ParamExpr::constant(0.3));
    c.s(0);
    c.addGate(GateType::T, {0});
    c.rzz(0, 1, ParamExpr::constant(0.7));
    c.cz(1, 0); // same pair, swapped orientation
    c.rz(2, ParamExpr::constant(-1.1));
    FusedProgram prog = fuseForSimulation(c, FusionMode::Full);
    for (const FusedOp &op : prog.ops)
        EXPECT_TRUE(op.diagonal);
    // RZ/S/T run absorbs into the RZZ/CZ pair op: expect 2 ops total
    // (the {0,1} diagonal product and the lone RZ on wire 2).
    EXPECT_EQ(prog.ops.size(), std::size_t{2});

    Statevector ref(3), fused(3);
    applyRaw(c, {}, ref);
    applyFusedProgram(prog, {}, fused);
    EXPECT_NEAR(maxAmpDiff(ref, fused), 0.0, 1e-12);
}

TEST(Fusion, OutputSideAbsorptionFoldsTrailing1q)
{
    // Full mode: 1q gates *after* a 2q gate fold into it (output
    // side), so a CX dressed with trailing rotations is one op.
    QuantumCircuit c(2, 0);
    c.cx(0, 1);
    c.h(0);
    c.rz(1, ParamExpr::constant(0.7));
    c.sx(1);
    FusedProgram full = fuseForSimulation(c, FusionMode::Full);
    EXPECT_EQ(full.ops.size(), std::size_t{1});

    // NoisePreserving must NOT absorb them: H and SX are physical
    // gates that carry their own calibration noise.
    FusedProgram noisy =
        fuseForSimulation(c, FusionMode::NoisePreserving);
    EXPECT_EQ(noisy.ops.size(), std::size_t{3});

    Statevector ref(2), fused(2);
    applyRaw(c, {}, ref);
    applyFusedProgram(full, {}, fused);
    EXPECT_NEAR(maxAmpDiff(ref, fused), 0.0, 1e-12);
}

TEST(Fusion, RandomizedOutputSideAbsorptionEquivalence)
{
    // Circuits shaped as 2q gates each followed by random 1q tails on
    // their wires: with output-side absorption every 1q gate lands in
    // some 2q op, so Full fusion yields at most one op per 2q gate.
    const GateType oneQ[] = {GateType::H,  GateType::SX, GateType::RX,
                             GateType::RY, GateType::RZ, GateType::T};
    const GateType twoQ[] = {GateType::CX, GateType::CZ, GateType::RZZ};
    Rng rng(55);
    for (int rep = 0; rep < 20; ++rep) {
        const int n = rng.uniformInt(2, 5);
        const int pairs = rng.uniformInt(2, 8);
        QuantumCircuit c(n, 0);
        int twoQCount = 0;
        for (int g = 0; g < pairs; ++g) {
            int a = rng.uniformInt(0, n - 1);
            int b = a;
            while (b == a)
                b = rng.uniformInt(0, n - 1);
            GateType tt = twoQ[rng.uniformInt(0, 2)];
            std::vector<ParamExpr> tp;
            for (int p = 0; p < gateParamCount(tt); ++p)
                tp.push_back(ParamExpr::constant(rng.uniform(-3, 3)));
            c.addGate(tt, {a, b}, tp);
            ++twoQCount;
            const int tail = rng.uniformInt(1, 4);
            for (int k = 0; k < tail; ++k) {
                GateType ot = oneQ[rng.uniformInt(0, 5)];
                std::vector<ParamExpr> op;
                for (int p = 0; p < gateParamCount(ot); ++p)
                    op.push_back(
                        ParamExpr::constant(rng.uniform(-3, 3)));
                c.addGate(ot, {rng.uniform() < 0.5 ? a : b}, op);
            }
        }
        FusedProgram prog = fuseForSimulation(c, FusionMode::Full);
        EXPECT_LE(prog.ops.size(), static_cast<std::size_t>(twoQCount))
            << "rep " << rep;

        Statevector ref(n), fused(n);
        applyRaw(c, {}, ref);
        applyFusedProgram(prog, {}, fused);
        EXPECT_NEAR(maxAmpDiff(ref, fused), 0.0, 1e-10) << "rep " << rep;
    }
}

TEST(Fusion, SamePairTwoQubitGatesMerge)
{
    QuantumCircuit c(2, 0);
    c.cx(0, 1);
    c.rz(0, ParamExpr::constant(0.4));
    c.cx(1, 0); // swapped orientation, still the same pair
    c.swap(0, 1);
    FusedProgram prog = fuseForSimulation(c, FusionMode::Full);
    EXPECT_EQ(prog.ops.size(), std::size_t{1});

    Statevector ref(2), fused(2);
    applyRaw(c, {}, ref);
    applyFusedProgram(prog, {}, fused);
    EXPECT_NEAR(maxAmpDiff(ref, fused), 0.0, 1e-12);
}

} // namespace
