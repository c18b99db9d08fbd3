#include "bnn.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mouse
{

namespace
{

/** popcount(XNOR(w, x)) for one neuron. */
std::int32_t
xnorPopcount(const std::vector<Bit> &w, const std::vector<Bit> &x)
{
    mouse_assert(w.size() == x.size(), "layer width mismatch");
    std::int32_t count = 0;
    for (std::size_t i = 0; i < w.size(); ++i) {
        count += (w[i] == x[i]);
    }
    return count;
}

} // namespace

std::vector<Bit>
BnnModel::hiddenForward(const std::vector<Bit> &in) const
{
    std::vector<Bit> act = in;
    for (const BnnLayer &layer : hidden) {
        mouse_assert(act.size() == layer.inputs, "layer mismatch");
        std::vector<Bit> next(layer.outputs);
        for (unsigned o = 0; o < layer.outputs; ++o) {
            next[o] = xnorPopcount(layer.weights[o], act) >=
                              layer.thresholds[o]
                          ? 1
                          : 0;
        }
        act = std::move(next);
    }
    return act;
}

std::vector<std::int32_t>
BnnModel::scores(const std::vector<Bit> &in) const
{
    const std::vector<Bit> act = hiddenForward(in);
    std::vector<std::int32_t> out(output.outputs);
    for (unsigned o = 0; o < output.outputs; ++o) {
        // Integer score: 2*popcount - n == the +-1 dot product.
        out[o] = 2 * xnorPopcount(output.weights[o], act) -
                 static_cast<std::int32_t>(output.inputs);
    }
    return out;
}

int
BnnModel::predict(const std::vector<Bit> &in) const
{
    const auto s = scores(in);
    return static_cast<int>(
        std::max_element(s.begin(), s.end()) - s.begin());
}

std::size_t
BnnModel::weightBits() const
{
    std::size_t bits = 0;
    for (const BnnLayer &l : hidden) {
        bits += static_cast<std::size_t>(l.inputs) * l.outputs;
    }
    bits += static_cast<std::size_t>(output.inputs) * output.outputs;
    return bits;
}

BnnShape
finnShape()
{
    return BnnShape{784, {1024, 1024, 1024}, 10};
}

BnnShape
fpBnnShape()
{
    // FP-BNN consumes 8-bit inputs; on MOUSE these arrive as 8 bit
    // planes per pixel feeding the first layer.
    return BnnShape{784 * 8, {2048, 2048, 2048}, 10};
}

} // namespace mouse
