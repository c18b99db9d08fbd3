/**
 * @file
 * Binary neural networks (paper Section III).
 *
 * Neurons and weights are one bit each; a layer computes, per output
 * neuron, popcount(XNOR(weights, activations)) against an integer
 * threshold.  This maps directly onto MOUSE: XNOR gates plus a
 * popcount adder chain per column (and is what buildBnnTrace prices).
 *
 * The paper reuses the FINN and FP-BNN network configurations with
 * training done offline; this layer holds a trained model's weights
 * and thresholds and runs its integer inference, and the shapes feed
 * the mapping that prices the network on MOUSE.
 */

#ifndef MOUSE_ML_BNN_HH
#define MOUSE_ML_BNN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mouse
{

/** One fully-connected binary layer. */
struct BnnLayer
{
    unsigned inputs = 0;
    unsigned outputs = 0;
    /** weights[o][i] in {0,1} encoding {-1,+1}. */
    std::vector<std::vector<Bit>> weights;
    /**
     * Activation threshold on the XNOR popcount (folds batch-norm):
     * neuron fires iff popcount >= threshold[o].
     */
    std::vector<std::int32_t> thresholds;
};

/** A binary MLP: binary hidden layers + integer-output final layer. */
struct BnnModel
{
    std::vector<BnnLayer> hidden;
    /** Final layer: one weight row per class, scored by popcount. */
    BnnLayer output;

    /** Binary forward pass through the hidden layers. */
    std::vector<Bit> hiddenForward(const std::vector<Bit> &in) const;

    /** Integer class scores (2*popcount - n per class). */
    std::vector<std::int32_t>
    scores(const std::vector<Bit> &in) const;

    int predict(const std::vector<Bit> &in) const;

    /** Model weight footprint in bits. */
    std::size_t weightBits() const;
};

/** Network shape presets from the paper. */
struct BnnShape
{
    unsigned inputBits = 784;
    std::vector<unsigned> hiddenWidths = {1024, 1024, 1024};
    unsigned numClasses = 10;
};

/** FINN MNIST configuration: binarized input, 3x1024 hidden. */
BnnShape finnShape();

/** FP-BNN MNIST configuration: 8-bit input (bit-planes feed 8x the
 *  input bits), 3x2048 hidden. */
BnnShape fpBnnShape();

} // namespace mouse

#endif // MOUSE_ML_BNN_HH
