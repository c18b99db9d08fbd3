#include "fft.hh"

#include <numbers>

#include "common/logging.hh"

namespace mouse
{

namespace
{

/** Wrap a signed value to @p bits (two's complement). */
std::int64_t
wrapTo(std::int64_t v, unsigned bits)
{
    const std::uint64_t mask = (bits >= 64)
                                   ? ~0ull
                                   : ((1ull << bits) - 1);
    std::uint64_t u = static_cast<std::uint64_t>(v) & mask;
    if (bits < 64 && (u >> (bits - 1)) & 1) {
        u |= ~mask;
    }
    return static_cast<std::int64_t>(u);
}

} // namespace

void
fixedButterfly(FixedComplex a, FixedComplex b, FixedComplex w,
               unsigned bits, FixedComplex &out_top,
               FixedComplex &out_bottom)
{
    const unsigned s = bits - 1;
    // Q-format complex multiply with per-product renormalization
    // (matching the array kernel's product-slice truncation).
    const std::int64_t wb_re =
        wrapTo((b.re * w.re >> s) - (b.im * w.im >> s), bits);
    const std::int64_t wb_im =
        wrapTo((b.re * w.im >> s) + (b.im * w.re >> s), bits);
    // Per-stage scaling by 1/2 keeps every intermediate inside the
    // fixed-point range for any input amplitude (the usual guarded
    // fixed-point FFT discipline; the array kernel drops the sum's
    // LSB the same way).
    out_top.re = wrapTo((a.re + wb_re) >> 1, bits);
    out_top.im = wrapTo((a.im + wb_im) >> 1, bits);
    out_bottom.re = wrapTo((a.re - wb_re) >> 1, bits);
    out_bottom.im = wrapTo((a.im - wb_im) >> 1, bits);
}

std::vector<FixedComplex>
fixedFft(std::vector<FixedComplex> x, unsigned bits)
{
    const std::size_t n = x.size();
    mouse_assert(n > 0 && (n & (n - 1)) == 0,
                 "FFT size must be a power of two");
    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) {
            j ^= bit;
        }
        j ^= bit;
        if (i < j) {
            std::swap(x[i], x[j]);
        }
    }
    const std::int64_t one = 1ll << (bits - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            -2.0 * std::numbers::pi / static_cast<double>(len);
        for (std::size_t blk = 0; blk < n; blk += len) {
            for (std::size_t k = 0; k < len / 2; ++k) {
                const double phi = angle * static_cast<double>(k);
                FixedComplex w;
                w.re = wrapTo(
                    static_cast<std::int64_t>(std::lround(
                        std::cos(phi) * (one - 1))),
                    bits);
                w.im = wrapTo(
                    static_cast<std::int64_t>(std::lround(
                        std::sin(phi) * (one - 1))),
                    bits);
                FixedComplex top;
                FixedComplex bottom;
                fixedButterfly(x[blk + k], x[blk + k + len / 2], w,
                               bits, top, bottom);
                x[blk + k] = top;
                x[blk + k + len / 2] = bottom;
            }
        }
    }
    return x;
}

namespace
{

/** Keep rows [from, from+len) of @p prod, freeing the rest. */
Word
sliceWord(KernelBuilder &kb, Word &prod, unsigned from, unsigned len)
{
    mouse_assert(from + len <= prod.size(), "slice OOB");
    Word out(prod.begin() + from, prod.begin() + from + len);
    for (unsigned i = 0; i < from; ++i) {
        kb.free(prod[i]);
    }
    for (std::size_t i = from + len; i < prod.size(); ++i) {
        kb.free(prod[i]);
    }
    prod.clear();
    return out;
}

/** Drop (and free) bits above @p bits. */
Word
truncWord(KernelBuilder &kb, Word w, unsigned bits)
{
    while (w.size() > bits) {
        kb.free(w.back());
        w.pop_back();
    }
    return w;
}

} // namespace

ButterflyResult
buildButterflyKernel(KernelBuilder &kb, const ButterflyLayout &layout,
                     unsigned bits)
{
    const unsigned s = bits - 1;
    const Word a_re = kb.pinnedWord(layout.aRe, bits);
    const Word a_im = kb.pinnedWord(layout.aIm, bits);
    const Word b_re = kb.pinnedWord(layout.bRe, bits);
    const Word b_im = kb.pinnedWord(layout.bIm, bits);
    const Word w_re = kb.pinnedWord(layout.wRe, bits);
    const Word w_im = kb.pinnedWord(layout.wIm, bits);

    // w * b, with each 2*bits product renormalized by slicing out
    // bits [s, s + bits).
    Word p1 = kb.mulSigned(b_re, w_re);
    Word p1s = sliceWord(kb, p1, s, bits);
    Word p2 = kb.mulSigned(b_im, w_im);
    Word p2s = sliceWord(kb, p2, s, bits);
    Word wb_re = truncWord(kb, kb.sub(p1s, p2s), bits);
    kb.freeWord(p1s);
    kb.freeWord(p2s);

    Word p3 = kb.mulSigned(b_re, w_im);
    Word p3s = sliceWord(kb, p3, s, bits);
    Word p4 = kb.mulSigned(b_im, w_re);
    Word p4s = sliceWord(kb, p4, s, bits);
    Word wb_im = truncWord(kb, kb.add(p3s, p4s, /*grow=*/false),
                           bits);
    kb.freeWord(p3s);
    kb.freeWord(p4s);

    // Per-stage 1/2 scaling: compute the exact (bits+1)-wide signed
    // sum/difference, then drop its LSB — an arithmetic right shift
    // in row terms.  The widening is a free sign-bit alias (reads
    // cost nothing); a raw ripple carry-out would be wrong for
    // signed operands.
    const auto extend1 = [](const Word &w) {
        Word e = w;
        e.push_back(w.back());
        return e;
    };
    const auto halve = [&](Word w) {
        kb.free(w.front());
        w.erase(w.begin());
        return w;
    };
    ButterflyResult out;
    out.topRe = halve(
        kb.add(extend1(a_re), extend1(wb_re), /*grow=*/false));
    out.topIm = halve(
        kb.add(extend1(a_im), extend1(wb_im), /*grow=*/false));
    out.botRe = halve(kb.sub(a_re, wb_re));
    out.botIm = halve(kb.sub(a_im, wb_im));
    kb.freeWord(wb_re);
    kb.freeWord(wb_im);
    return out;
}

Trace
buildFftTrace(const GateLibrary &lib, const FftWorkload &work,
              std::uint64_t total_columns, unsigned tile_cols,
              FftMappingInfo *info)
{
    mouse_assert(work.points >= 2 &&
                     (work.points & (work.points - 1)) == 0,
                 "FFT size must be a power of two");
    mouse_assert(total_columns > 0, "no columns");

    // Measure the butterfly instruction mix once by compiling it on a
    // counting builder.
    ArrayConfig meas;
    meas.tileRows = 1024;
    meas.tileCols = 1024;
    meas.numDataTiles = 1;
    KernelBuilder kb(lib, meas, 0, 12 * 2 * work.bits,
                     KernelBuilder::Mode::kCount);
    ButterflyLayout layout;
    layout.aRe = 0;
    layout.aIm = static_cast<RowAddr>(2 * work.bits);
    layout.bRe = static_cast<RowAddr>(4 * work.bits);
    layout.bIm = static_cast<RowAddr>(6 * work.bits);
    layout.wRe = static_cast<RowAddr>(8 * work.bits);
    layout.wIm = static_cast<RowAddr>(10 * work.bits);
    ButterflyResult r = buildButterflyKernel(kb, layout, work.bits);
    (void)r;
    const KernelBuilder::OpcodeCounts &mix = kb.opcodeCounts();

    const unsigned stages = [&] {
        unsigned s = 0;
        for (unsigned n = work.points; n > 1; n >>= 1) {
            ++s;
        }
        return s;
    }();
    const std::uint64_t butterflies = work.points / 2;
    const std::uint64_t per_chunk =
        std::min<std::uint64_t>(butterflies, total_columns);
    const unsigned chunks = static_cast<unsigned>(
        (butterflies + per_chunk - 1) / per_chunk);
    const unsigned tiles = static_cast<unsigned>(
        (per_chunk + tile_cols - 1) / tile_cols);

    Trace trace;
    trace.gateQueries = kb.gateQueries();
    trace.gateAnswers = kb.gateAnswers();
    const auto active = static_cast<unsigned>(per_chunk);
    for (unsigned stage = 0; stage < stages; ++stage) {
        for (unsigned chunk = 0; chunk < chunks; ++chunk) {
            trace.append(Opcode::kActivateRange, active, active, 1);
            for (std::size_t op = 0; op < mix.size(); ++op) {
                if (mix[op] > 0) {
                    trace.append(static_cast<Opcode>(op), active,
                                 active, mix[op]);
                }
            }
            // Inter-stage shuffle: each butterfly emits two complex
            // samples (4 * bits rows) that move to their next-stage
            // columns through the row buffer.
            trace.append(Opcode::kReadRow, tile_cols, active,
                         static_cast<std::uint64_t>(4) * work.bits *
                             tiles);
            trace.append(Opcode::kWriteRow, tile_cols, active,
                         static_cast<std::uint64_t>(4) * work.bits *
                             tiles);
        }
    }

    if (info) {
        info->stages = stages;
        info->butterfliesPerStage = butterflies;
        info->peakActiveColumns = per_chunk;
        info->totalInstructions = trace.totalInstructions();
    }
    return trace;
}

} // namespace mouse
