#include "builder.hh"

#include "common/logging.hh"

namespace mouse
{

KernelBuilder::KernelBuilder(const GateLibrary &lib,
                             const ArrayConfig &cfg, TileAddr tile,
                             unsigned first_free_row, Mode mode)
    : lib_(lib), cfg_(cfg), tile_(tile),
      rows_(cfg.tileRows, first_free_row), mode_(mode),
      locality_(lib.config().wireResistancePerCell > 0.0)
{
    mouse_assert(tile < cfg.numDataTiles || tile == kBroadcastTile,
                 "tile OOB");
}

RowAddr
KernelBuilder::allocOut(unsigned parity, RowAddr anchor)
{
    return locality_ ? rows_.allocNear(parity, anchor)
                     : rows_.alloc(parity);
}

void
KernelBuilder::activate(ColAddr lo, ColAddr hi)
{
    mouse_assert(mode_ == Mode::kRecord,
                 "a counting builder measures a kernel body; its "
                 "caller places the activation");
    emit(Opcode::kActivateRange,
         [&] { return Instruction::activateRange(lo, hi, true); });
}

Program
KernelBuilder::finish()
{
    mouse_assert(mode_ == Mode::kRecord,
                 "finish() on a counting builder");
    mouse_assert(!finished_, "finish() called twice");
    finished_ = true;
    emit(Opcode::kHalt, [] { return Instruction::halt(); });
    return std::move(program_);
}

Word
KernelBuilder::pinnedWord(RowAddr start, unsigned bits,
                          unsigned stride) const
{
    mouse_assert(stride % 2 == 0, "stride must preserve parity");
    Word w;
    w.reserve(bits);
    for (unsigned i = 0; i < bits; ++i) {
        w.push_back(Val{static_cast<RowAddr>(start + i * stride)});
    }
    anchor_ = start;
    return w;
}

void
KernelBuilder::readRow(RowAddr row)
{
    emit(Opcode::kReadRow, [&] { return Instruction::readRow(tile_, row); });
}

void
KernelBuilder::writeRow(RowAddr row)
{
    emit(Opcode::kWriteRow,
         [&] { return Instruction::writeRow(tile_, row); });
}

void
KernelBuilder::writeRowShifted(RowAddr row, ColAddr shift)
{
    emit(Opcode::kWriteRowShifted, [&] {
        return Instruction::writeRowShifted(tile_, row, shift);
    });
}

Word
KernelBuilder::shiftedCopy(const Word &src, ColAddr shift)
{
    Word dst;
    dst.reserve(src.size());
    for (Val v : src) {
        const Val d = scratch(v.parity());
        readRow(v.row);
        writeRowShifted(d.row, shift);
        dst.push_back(d);
    }
    return dst;
}

Word
KernelBuilder::crossColumnSum(Word value, unsigned columns,
                              bool signed_values)
{
    mouse_assert(columns >= 2 && (columns & (columns - 1)) == 0,
                 "column count must be a power of two");
    for (unsigned stride = 1; stride < columns; stride <<= 1) {
        Word shifted =
            shiftedCopy(value, static_cast<ColAddr>(stride));
        Word next;
        if (signed_values) {
            // Exact signed sum: widen both addends by an aliased
            // sign bit (free) and add without carry growth.
            Word ve = value;
            ve.push_back(value.back());
            Word se = shifted;
            se.push_back(shifted.back());
            next = add(ve, se, /*grow=*/false);
        } else {
            next = add(value, shifted, /*grow=*/true);
        }
        freeWord(value);
        freeWord(shifted);
        value = std::move(next);
    }
    return value;
}

Val
KernelBuilder::constant(Bit value, unsigned parity)
{
    const Val v{allocOut(parity, anchor_)};
    emitPreset(value, v.row);
    return v;
}

void
KernelBuilder::free(Val v)
{
    rows_.release(v.row);
}

void
KernelBuilder::freeWord(Word &w)
{
    for (Val v : w) {
        rows_.release(v.row);
    }
    w.clear();
}

void
KernelBuilder::emitPreset(Bit value, RowAddr row)
{
    emit(value ? Opcode::kPreset1 : Opcode::kPreset0,
         [&] { return Instruction::preset(value, tile_, row); });
}

void
KernelBuilder::emitGate(GateType g, const std::array<RowAddr, 3> &in,
                        int n, RowAddr out)
{
    emit(opcodeFromGate(g), [&] {
        switch (n) {
          case 1:
            return Instruction::gate(g, tile_, in[0], out);
          case 2:
            return Instruction::gate(g, tile_, in[0], in[1], out);
          default:
            return Instruction::gate(g, tile_, in[0], in[1], in[2],
                                     out);
        }
    });
}

bool
KernelBuilder::feasible(GateType g)
{
    const bool ok = lib_.feasible(g);
    queries_ |= gateBit(g);
    if (ok) {
        answers_ |= gateBit(g);
    }
    return ok;
}

void
KernelBuilder::requireFeasible(GateType g)
{
    if (!feasible(g)) {
        mouse_fatal("gate %s not feasible on %s", gateName(g).c_str(),
                    lib_.config().name().c_str());
    }
}

Val
KernelBuilder::gate1(GateType g, Val a)
{
    requireFeasible(g);
    mouse_assert(gateNumInputs(g) == 1, "arity");
    const Val out{allocOut(!a.parity(), a.row)};
    anchor_ = out.row;
    emitPreset(gatePreset(g), out.row);
    emitGate(g, {a.row, 0, 0}, 1, out.row);
    return out;
}

Val
KernelBuilder::gate2(GateType g, Val a, Val b)
{
    requireFeasible(g);
    mouse_assert(gateNumInputs(g) == 2, "arity");
    mouse_assert(a.parity() == b.parity(),
                 "gate2 inputs must share parity");
    const Val out{allocOut(!a.parity(), a.row)};
    anchor_ = out.row;
    emitPreset(gatePreset(g), out.row);
    emitGate(g, {a.row, b.row, 0}, 2, out.row);
    return out;
}

Val
KernelBuilder::gate3(GateType g, Val a, Val b, Val c)
{
    requireFeasible(g);
    mouse_assert(gateNumInputs(g) == 3, "arity");
    mouse_assert(a.parity() == b.parity() && b.parity() == c.parity(),
                 "gate3 inputs must share parity");
    const Val out{allocOut(!a.parity(), b.row)};
    anchor_ = out.row;
    emitPreset(gatePreset(g), out.row);
    emitGate(g, {a.row, b.row, c.row}, 3, out.row);
    return out;
}

Val
KernelBuilder::copyFlip(Val v)
{
    return gate1(GateType::kBuf, v);
}

Val
KernelBuilder::asParity(Val v, unsigned parity)
{
    // NOTE: when a copy is made the caller still owns the original;
    // compare rows to know whether a fresh scratch bit came back.
    if (v.parity() == parity) {
        return v;
    }
    return copyFlip(v);
}

Val
KernelBuilder::not_(Val a)
{
    return gate1(GateType::kNot, a);
}

Val
KernelBuilder::nand(Val a, Val b)
{
    return gate2(GateType::kNand2, a, b);
}

Val
KernelBuilder::andFlip(Val a, Val b)
{
    if (feasible(GateType::kAnd2)) {
        return gate2(GateType::kAnd2, a, b);
    }
    Val same = andSame(a, b);
    Val out = copyFlip(same);
    free(same);
    return out;
}

Val
KernelBuilder::andSame(Val a, Val b)
{
    Val n = nand(a, b);
    Val out = not_(n);
    free(n);
    return out;
}

Val
KernelBuilder::orFlip(Val a, Val b)
{
    if (feasible(GateType::kOr2)) {
        return gate2(GateType::kOr2, a, b);
    }
    // DeMorgan fallback: OR(a,b) = NAND(!a,!b); the NOTs flip parity
    // so the NAND lands back at the inputs' parity — copy to flip.
    Val na = not_(a);
    Val nb = not_(b);
    Val same = nand(na, nb);
    free(na);
    free(nb);
    Val out = copyFlip(same);
    free(same);
    return out;
}

Val
KernelBuilder::xorSame(Val a, Val b)
{
    mouse_assert(a.parity() == b.parity(), "xor inputs parity");
    Val t1 = nand(a, b);
    Val t1c = copyFlip(t1);
    free(t1);
    Val t2 = nand(a, t1c);
    Val t3 = nand(b, t1c);
    free(t1c);
    Val out = nand(t2, t3);
    free(t2);
    free(t3);
    return out;
}

Val
KernelBuilder::xnorFlip(Val a, Val b)
{
    Val x = xorSame(a, b);
    Val out = not_(x);
    free(x);
    return out;
}

void
KernelBuilder::fullAdder(Val a, Val b, Val cin, Val &sum, Val &cout)
{
    mouse_assert(a.parity() == b.parity() && b.parity() == cin.parity(),
                 "full adder inputs parity");
    // The paper's 9-NAND full add, plus the two parity copies the
    // bitline structure requires.
    Val t1 = nand(a, b);
    Val t1c = copyFlip(t1);
    Val t2 = nand(a, t1c);
    Val t3 = nand(b, t1c);
    free(t1c);
    Val t4 = nand(t2, t3);  // a xor b
    free(t2);
    free(t3);
    Val t5 = nand(t4, cin);
    Val t5c = copyFlip(t5);
    Val t6 = nand(t4, t5c);
    free(t4);
    Val t7 = nand(cin, t5c);
    free(t5c);
    sum = nand(t6, t7);
    free(t6);
    free(t7);
    cout = nand(t1, t5);
    free(t1);
    free(t5);
}

void
KernelBuilder::halfAdder(Val a, Val b, Val &sum, Val &carry)
{
    sum = xorSame(a, b);
    carry = andSame(a, b);
}

namespace
{

/** Bit i of @p w, falling back to sign/zero extension. */
Val
bitOrExtend(const Word &w, unsigned i, bool signed_ext,
            std::optional<Val> zero)
{
    if (i < w.size()) {
        return w[i];
    }
    if (signed_ext) {
        return w.back();
    }
    mouse_assert(zero.has_value(), "zero extension bit missing");
    return *zero;
}

} // namespace

Word
KernelBuilder::add(const Word &a, const Word &b, bool grow,
                   bool signed_ext)
{
    mouse_assert(!a.empty() && !b.empty(), "empty operands");
    const unsigned n =
        static_cast<unsigned>(std::max(a.size(), b.size()));
    std::optional<Val> zero;
    if (!signed_ext && a.size() != b.size()) {
        zero = constant(0, a[0].parity());
    }

    Word result;
    result.reserve(n + 1);
    Val carry{};
    for (unsigned i = 0; i < n; ++i) {
        const Val ai = bitOrExtend(a, i, signed_ext, zero);
        const Val bi = bitOrExtend(b, i, signed_ext, zero);
        Val sum{};
        if (i == 0) {
            halfAdder(ai, bi, sum, carry);
        } else {
            Val next{};
            fullAdder(ai, bi, carry, sum, next);
            free(carry);
            carry = next;
        }
        result.push_back(sum);
    }
    if (grow) {
        result.push_back(carry);
    } else {
        free(carry);
    }
    if (zero) {
        free(*zero);
    }
    return result;
}

Word
KernelBuilder::sub(const Word &a, const Word &b)
{
    mouse_assert(!a.empty() && !b.empty(), "empty operands");
    // a - b = a + ~b + 1, computed over max width + 1 with sign
    // extension so the result is exact in two's complement.
    const unsigned n =
        static_cast<unsigned>(std::max(a.size(), b.size())) + 1;
    Word result;
    result.reserve(n);
    Val carry = constant(1, a[0].parity());
    for (unsigned i = 0; i < n; ++i) {
        const Val ai = bitOrExtend(a, i, true, std::nullopt);
        const Val bi = bitOrExtend(b, i, true, std::nullopt);
        // Complement of b_i at the operand parity: NOT then copy.
        Val nb = not_(bi);
        Val nbc = copyFlip(nb);
        free(nb);
        Val sum{};
        Val next{};
        fullAdder(ai, nbc, carry, sum, next);
        free(nbc);
        free(carry);
        carry = next;
        result.push_back(sum);
    }
    free(carry);
    return result;
}

Word
KernelBuilder::mulUnsigned(const Word &a, const Word &b)
{
    mouse_assert(!a.empty() && !b.empty(), "empty operands");
    const unsigned m = static_cast<unsigned>(a.size());
    const unsigned n = static_cast<unsigned>(b.size());
    const unsigned w = m + n;

    Word acc = zeroWord(w, a[0].parity());
    for (unsigned j = 0; j < n; ++j) {
        // Partial product a * b_j added into acc at offset j, with
        // the carry rippled to the top of the accumulator.
        Val carry{};
        bool have_carry = false;
        for (unsigned i = 0; i < m && j + i < w; ++i) {
            Val pij = andSame(a[i], b[j]);
            Val sum{};
            if (!have_carry) {
                Val c{};
                halfAdder(acc[j + i], pij, sum, c);
                carry = c;
                have_carry = true;
            } else {
                Val next{};
                fullAdder(acc[j + i], pij, carry, sum, next);
                free(carry);
                carry = next;
            }
            free(pij);
            free(acc[j + i]);
            acc[j + i] = sum;
        }
        for (unsigned k = j + m; k < w && have_carry; ++k) {
            Val sum{};
            Val next{};
            halfAdder(acc[k], carry, sum, next);
            free(carry);
            carry = next;
            free(acc[k]);
            acc[k] = sum;
        }
        if (have_carry) {
            free(carry);
        }
    }
    return acc;
}

Word
KernelBuilder::mulSigned(const Word &a, const Word &b)
{
    mouse_assert(!a.empty() && !b.empty(), "empty operands");
    const unsigned w = static_cast<unsigned>(a.size() + b.size());
    // Sign-extend both operands to the product width (the extension
    // entries alias the sign-bit row: reads are free) and multiply
    // modulo 2^w.
    Word ae = a;
    while (ae.size() < w) {
        ae.push_back(a.back());
    }
    Word be = b;
    while (be.size() < w) {
        be.push_back(b.back());
    }

    Word acc = zeroWord(w, a[0].parity());
    for (unsigned j = 0; j < w; ++j) {
        Val carry{};
        bool have_carry = false;
        for (unsigned i = 0; i + j < w; ++i) {
            Val pij = andSame(ae[i], be[j]);
            Val sum{};
            if (!have_carry) {
                Val c{};
                halfAdder(acc[j + i], pij, sum, c);
                carry = c;
                have_carry = true;
            } else {
                Val next{};
                fullAdder(acc[j + i], pij, carry, sum, next);
                free(carry);
                carry = next;
            }
            free(pij);
            free(acc[j + i]);
            acc[j + i] = sum;
        }
        if (have_carry) {
            free(carry);
        }
    }
    return acc;
}

Word
KernelBuilder::popcount(const std::vector<Val> &bits)
{
    mouse_assert(!bits.empty(), "empty popcount");
    unsigned width = 1;
    while ((1u << width) <= bits.size()) {
        ++width;
    }
    Word acc = zeroWord(width, bits[0].parity());
    for (Val bit : bits) {
        // Increment-by-bit: ripple half adders up the counter.
        Val carry = bit;
        bool carry_owned = false;
        for (unsigned i = 0; i < width; ++i) {
            Val sum{};
            Val next{};
            halfAdder(acc[i], carry, sum, next);
            if (carry_owned) {
                free(carry);
            }
            carry = next;
            carry_owned = true;
            free(acc[i]);
            acc[i] = sum;
        }
        free(carry);
    }
    return acc;
}

Word
KernelBuilder::popcountTree(std::vector<Val> bits)
{
    mouse_assert(!bits.empty(), "empty popcount");
    // Carry-save reduction: bucket bits by binary weight; each full
    // adder turns three same-weight bits into one sum bit (same
    // weight) and one carry bit (next weight).
    std::vector<std::vector<Val>> buckets;
    buckets.push_back(std::move(bits));
    // NOTE: index, don't hold references — pushing a new weight level
    // reallocates the outer vector.
    for (std::size_t weight = 0; weight < buckets.size(); ++weight) {
        while (buckets[weight].size() >= 2) {
            if (weight + 1 >= buckets.size()) {
                buckets.emplace_back();
            }
            const bool pair = buckets[weight].size() == 2;
            const Val a = buckets[weight].back();
            buckets[weight].pop_back();
            const Val b = buckets[weight].back();
            buckets[weight].pop_back();
            Val sum{};
            Val carry{};
            if (pair) {
                halfAdder(a, b, sum, carry);
            } else {
                const Val c = buckets[weight].back();
                buckets[weight].pop_back();
                fullAdder(a, b, c, sum, carry);
                free(c);
            }
            free(a);
            free(b);
            buckets[weight].push_back(sum);
            buckets[weight + 1].push_back(carry);
            if (pair) {
                break;  // one sum bit remains at this weight
            }
        }
    }
    Word result;
    result.reserve(buckets.size());
    for (auto &bucket : buckets) {
        mouse_assert(bucket.size() == 1, "reduction incomplete");
        result.push_back(bucket.front());
    }
    return result;
}

Word
KernelBuilder::zeroWord(unsigned bits, unsigned parity)
{
    Word w;
    w.reserve(bits);
    for (unsigned i = 0; i < bits; ++i) {
        w.push_back(constant(0, parity));
    }
    return w;
}

} // namespace mouse
