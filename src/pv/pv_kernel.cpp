#include "pv_kernel.hpp"

#include <atomic>
#include <cmath>

#include "obs/profiler.hpp"
#include "pv/pv_kernel_detail.hpp"
#include "util/cpuid.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"

namespace solarcore::pv {

namespace detail {

CellConsts
CellConsts::from(const SolarCell &cell)
{
    constexpr double kBoltzmann = 1.380649e-23;   // [J/K]
    constexpr double kElectron = 1.602176634e-19; // [C]
    const CellParams &p = cell.params();
    CellConsts c;
    c.iscRef = p.iscRef;
    c.alphaIsc = p.alphaIsc;
    c.rs = p.seriesRes;
    c.i0Ref = cell.saturationCurrentRef();
    c.nkOverQ = p.idealityN * kBoltzmann / kElectron;
    c.egOverNk = p.bandgapEv * kElectron / (p.idealityN * kBoltzmann);
    c.tRefK = kelvin(kStc.cellTempC);
    return c;
}

} // namespace detail

namespace {

// -1 = unset: resolve lazily to detectPvKernel(). Global, relaxed
// atomics, set once at startup.
std::atomic<int> g_pv_kernel{-1};

void
batchEvalDispatch(const detail::CellConsts &c, const double *g,
                  const double *t, const double *v, std::size_t n,
                  double *i_out, double *di_out, PvKernel kernel)
{
#ifdef SOLARCORE_HAVE_AVX2
    if (kernel == PvKernel::Avx2) {
        detail::evalIvBatchAvx2(c, g, t, v, n, i_out, di_out);
        return;
    }
#else
    (void)kernel;
#endif
    detail::evalIvBatchPortable(c, g, t, v, n, i_out, di_out);
}

void
batchMppDispatch(const detail::CellConsts &c, const double *g,
                 const double *t, std::size_t n, double *v_out,
                 double *i_out, PvKernel kernel)
{
#ifdef SOLARCORE_HAVE_AVX2
    if (kernel == PvKernel::Avx2) {
        detail::mppBatchAvx2(c, g, t, n, v_out, i_out);
        return;
    }
#else
    (void)kernel;
#endif
    detail::mppBatchPortable(c, g, t, n, v_out, i_out);
}

// Lane-chunk size for the SoA gather buffers: big enough to amortize
// the loop overhead, small enough to live on the stack.
constexpr std::size_t kChunk = 128;

} // namespace

const char *
pvKernelName(PvKernel kernel)
{
    switch (kernel) {
    case PvKernel::Portable:
        return "portable";
    case PvKernel::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
pvKernelFromToken(std::string_view token, PvKernel &out)
{
    if (token == "portable") {
        out = PvKernel::Portable;
        return true;
    }
    if (token == "avx2") {
        out = PvKernel::Avx2;
        return true;
    }
    return false;
}

PvKernel
detectPvKernel()
{
#ifdef SOLARCORE_HAVE_AVX2
    if (cpuHasAvx2())
        return PvKernel::Avx2;
#endif
    return PvKernel::Portable;
}

bool
pvKernelSupported(PvKernel kernel)
{
    switch (kernel) {
    case PvKernel::Portable:
        return true;
    case PvKernel::Avx2:
#ifdef SOLARCORE_HAVE_AVX2
        return cpuHasAvx2();
#else
        return false;
#endif
    }
    return false;
}

bool
resolvePvKernel(std::string_view token, PvKernel &out)
{
    if (token == "auto") {
        out = detectPvKernel();
        return true;
    }
    PvKernel parsed = PvKernel::Portable;
    if (!pvKernelFromToken(token, parsed) || !pvKernelSupported(parsed))
        return false;
    out = parsed;
    return true;
}

void
setPvKernel(PvKernel kernel)
{
    SC_ASSERT(pvKernelSupported(kernel),
              "setPvKernel: kernel not available on this build/machine");
    g_pv_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

PvKernel
selectedPvKernel()
{
    const int raw = g_pv_kernel.load(std::memory_order_relaxed);
    if (raw >= 0)
        return static_cast<PvKernel>(raw);
    const PvKernel detected = detectPvKernel();
    // Benign race: every thread detects the same value.
    g_pv_kernel.store(static_cast<int>(detected),
                      std::memory_order_relaxed);
    return detected;
}

void
evalIv(const SolarCell &cell, std::span<const Environment> envs,
       std::span<const double> v, std::span<IvOut> out)
{
    SC_ASSERT(envs.size() == v.size() && envs.size() == out.size(),
              "evalIv: span lengths differ");
    if (cell.params().seriesRes <= 0.0) {
        // Rs = 0: the exact per-call expm1 formulas, bitwise.
        for (std::size_t k = 0; k < envs.size(); ++k) {
            out[k].current = cell.currentAt(v[k], envs[k]);
            out[k].slope = cell.currentSlopeAt(v[k], envs[k]);
        }
        return;
    }

    SC_PROFILE_SCOPE("pv.evalIvBatch");
    const PvKernel kernel = selectedPvKernel();
    const detail::CellConsts consts = detail::CellConsts::from(cell);
    alignas(64) double gs[kChunk], ts[kChunk], vs[kChunk];
    alignas(64) double is[kChunk], dis[kChunk];
    for (std::size_t base = 0; base < envs.size(); base += kChunk) {
        const std::size_t m = std::min(kChunk, envs.size() - base);
        for (std::size_t j = 0; j < m; ++j) {
            const Environment &e = envs[base + j];
            // Dark lanes run the vector math on a benign stand-in and
            // are overwritten with the exact scalar dark formula below
            // (lanes are independent, so the stand-in affects nothing).
            const bool dark = e.irradiance <= 0.0;
            gs[j] = dark ? kStc.irradiance : e.irradiance;
            ts[j] = e.cellTempC;
            vs[j] = v[base + j];
        }
        batchEvalDispatch(consts, gs, ts, vs, m, is, dis, kernel);
        for (std::size_t j = 0; j < m; ++j) {
            const Environment &e = envs[base + j];
            if (e.irradiance <= 0.0) {
                out[base + j].current = cell.currentAt(v[base + j], e);
                out[base + j].slope =
                    cell.currentSlopeAt(v[base + j], e);
            } else {
                out[base + j].current = is[j];
                out[base + j].slope = dis[j];
            }
        }
    }
}

void
findMppBatch(const PvModule &module, int modules_series,
             int modules_parallel, std::span<const Environment> envs,
             std::span<MppResult> out)
{
    SC_ASSERT(envs.size() == out.size(),
              "findMppBatch: span lengths differ");
    SC_ASSERT(modules_series > 0 && modules_parallel > 0,
              "findMppBatch: arrangement must be positive");
    const SolarCell &cell = module.cell();
    if (cell.params().seriesRes <= 0.0) {
        // Rs = 0: the exact per-lane findMpp(PvArray).
        PvArray array(module, modules_series, modules_parallel, kStc);
        for (std::size_t k = 0; k < envs.size(); ++k) {
            array.setEnvironment(envs[k]);
            out[k] = findMpp(array);
        }
        return;
    }

    SC_PROFILE_SCOPE("pv.findMppBatch");
    const PvKernel kernel = selectedPvKernel();
    const detail::CellConsts consts = detail::CellConsts::from(cell);
    const double v_scale =
        static_cast<double>(module.cellsSeries() * modules_series);
    const double i_scale =
        static_cast<double>(module.stringsParallel() * modules_parallel);
    alignas(64) double gs[kChunk], ts[kChunk];
    alignas(64) double vm[kChunk], im[kChunk];
    for (std::size_t base = 0; base < envs.size(); base += kChunk) {
        const std::size_t m = std::min(kChunk, envs.size() - base);
        for (std::size_t j = 0; j < m; ++j) {
            const Environment &e = envs[base + j];
            const bool dark = e.irradiance <= 0.0;
            gs[j] = dark ? kStc.irradiance : e.irradiance;
            ts[j] = e.cellTempC;
        }
        batchMppDispatch(consts, gs, ts, m, vm, im, kernel);
        for (std::size_t j = 0; j < m; ++j) {
            if (envs[base + j].irradiance <= 0.0) {
                out[base + j] = MppResult{};
            } else {
                MppResult &r = out[base + j];
                r.voltage = vm[j] * v_scale;
                r.current = im[j] * i_scale;
                r.power = r.voltage * r.current;
            }
        }
    }
}

PreparedArray::PreparedArray(const PvModule &module, int modules_series,
                             int modules_parallel)
    : cell_(module.cell()),
      vScale_(static_cast<double>(module.cellsSeries() * modules_series)),
      iScale_(
          static_cast<double>(module.stringsParallel() * modules_parallel)),
      modulesSeries_(modules_series), cellsSeries_(module.cellsSeries()),
      stringsParallel_(module.stringsParallel()),
      modulesParallel_(modules_parallel)
{
    SC_ASSERT(modules_series > 0 && modules_parallel > 0,
              "PreparedArray: arrangement must be positive");
}

void
PreparedArray::setEnvironment(const Environment &env)
{
    if (prepared_ && env.irradiance == env_.irradiance &&
        env.cellTempC == env_.cellTempC)
        return;
    SC_PROFILE_SCOPE("pv.prepare");
    env_ = env;
    prepared_ = true;

    vt_ = cell_.thermalVoltage(env.cellTempC);
    i0_ = cell_.saturationCurrent(env.cellTempC);
    rs_ = cell_.params().seriesRes;
    dark_ = env.irradiance <= 0.0;
    if (dark_) {
        iph_ = 0.0;
        a_ = i0_;
        logC_ = 0.0;
        vocCell_ = 0.0;
        vocArray_ = 0.0;
        mpp_ = MppResult{};
        return;
    }
    iph_ = cell_.photoCurrent(env);
    a_ = iph_ + i0_;
    logC_ = rs_ > 0.0
        ? std::log(i0_ * rs_ / vt_) + a_ * rs_ / vt_
        : 0.0;
    vocCell_ = cell_.openCircuitVoltage(env);
    vocArray_ = vocCell_ * vScale_;

    // The MPP runs through the very same scalar calls findMpp(PvArray)
    // makes, so the feasibility threshold a pin decision compares
    // against (p_needed > mpp.power) is bitwise identical to the
    // legacy path's.
    const double v_cell = cell_.mppVoltage(env);
    const double i_cell = std::max(0.0, cell_.currentAt(v_cell, env));
    mpp_.voltage = v_cell * vScale_;
    mpp_.current = i_cell * iScale_;
    mpp_.power = mpp_.voltage * mpp_.current;

    // w-space bracket of the stable branch [Vmpp, Voc] for the pin
    // solver: one cold Lambert solve at the MPP; the Voc end is exact
    // (I = 0 at w = A Rs / Vt).
    if (rs_ > 0.0) {
        wMpp_ = lambertW0exp(logC_ + v_cell / vt_);
        wVoc_ = a_ * rs_ / vt_;
    } else {
        wMpp_ = 0.0;
        wVoc_ = 0.0;
    }
}

double
PreparedArray::cellCurrentAt(double v_cell) const
{
    if (dark_ || rs_ <= 0.0)
        return iph_ - i0_ * std::expm1(v_cell / vt_);
    const double w = lambertW0exp(logC_ + v_cell / vt_);
    return a_ - w * vt_ / rs_;
}

double
PreparedArray::currentAt(double v_array) const
{
    SC_ASSERT(prepared_, "PreparedArray: no environment set");
    // Same operation order as PvArray::currentAt -> PvModule::currentAt
    // (module voltage, then cell voltage, clamp, then the two parallel
    // scalings) so the curve matches the legacy source lane for lane.
    const double v_module = v_array / modulesSeries_;
    const double v_cell = v_module / cellsSeries_;
    const double i =
        std::max(0.0, cellCurrentAt(v_cell)) * stringsParallel_;
    return i * modulesParallel_;
}

bool
PreparedArray::solveStableBranch(double p_array_w, double &v_array,
                                 double &i_array) const
{
    SC_ASSERT(prepared_, "PreparedArray: no environment set");
    if (dark_ || p_array_w > mpp_.power)
        return false;

    if (rs_ <= 0.0) {
        // Rs = 0: Newton on f(v) = v I(v) - p over [Vmpp, Voc] with
        // the exact expm1 formulas, bisecting when a step degenerates
        // or escapes the bracket. f is monotone decreasing here with
        // f(Vmpp) >= 0 >= f(Voc), so the bracket never empties.
        double lo = mpp_.voltage;
        double hi = vocArray_;
        double v = 0.5 * (lo + hi);
        const double slope_scale = iScale_ / vScale_;
        for (int it = 0; it < 60; ++it) {
            const double v_cell = v / modulesSeries_ / cellsSeries_;
            const double i_cell = iph_ - i0_ * std::expm1(v_cell / vt_);
            const double di_cell = -i0_ / vt_ * std::exp(v_cell / vt_);
            const double i = std::max(0.0, i_cell) * stringsParallel_ *
                modulesParallel_;
            const double f = v * i - p_array_w;
            if (f > 0.0)
                lo = v;
            else
                hi = v;
            const double df = i + v * di_cell * slope_scale;
            double next = df != 0.0 ? v - f / df : 0.5 * (lo + hi);
            if (std::abs(next - v) <= 1e-13 * (1.0 + std::abs(v))) {
                v = next;
                break;
            }
            if (next <= lo || next >= hi)
                next = 0.5 * (lo + hi);
            v = next;
        }
        v_array = v;
        i_array = currentAt(v);
        return true;
    }

    // Rs > 0: Newton on F(w) = V(w) I(w) - p over [wMpp, wVoc],
    // parametrized by the Lambert variable so each iteration costs one
    // log instead of a full W0exp re-solve:
    //
    //   V(w) = S_v Vt (w + log w - logC)      S_v = cells x modules
    //   I(w) = S_i (A - (Vt/Rs) w)            S_i = strings x modules
    //   F'(w) = S_v Vt (1 + 1/w) I - V S_i Vt / Rs
    //
    // F is monotone decreasing on the branch (V rises, I falls), so the
    // bracket logic is unchanged. Controllers re-pin nearly identical
    // demands thousands of times between environment changes, so the
    // previous root -- while it still lies inside the fresh bracket --
    // beats the midpoint seed by several iterations.
    double lo = wMpp_;
    double hi = wVoc_;
    double w = (warmW_ > lo && warmW_ < hi) ? warmW_ : 0.5 * (lo + hi);
    const double s = vt_ / rs_;
    for (int it = 0; it < 60; ++it) {
        const double y = w + std::log(w);
        const double v = vScale_ * vt_ * (y - logC_);
        const double i_cell = a_ - s * w;
        const double i =
            std::max(0.0, i_cell) * stringsParallel_ * modulesParallel_;
        const double f = v * i - p_array_w;

        if (f > 0.0)
            lo = w;
        else
            hi = w;

        const double df =
            vScale_ * vt_ * (1.0 + 1.0 / w) * i - v * iScale_ * s;

        double next = df != 0.0 ? w - f / df : 0.5 * (lo + hi);
        if (std::abs(next - w) <= 1e-13 * (1.0 + std::abs(w))) {
            w = next;
            break;
        }
        if (next <= lo || next >= hi)
            next = 0.5 * (lo + hi);
        w = next;
    }
    warmW_ = w;
    v_array = vScale_ * vt_ * (w + std::log(w) - logC_);
    i_array = std::max(0.0, a_ - s * w) * stringsParallel_ *
        modulesParallel_;
    return true;
}

} // namespace solarcore::pv
