/**
 * @file
 * Benchmark datasets (paper Section VIII).
 *
 * The paper evaluates on MNIST, Human Activity Recognition (HAR)
 * and ADULT.  Those datasets are not available in this offline
 * environment, so we generate *synthetic equivalents with identical
 * shapes* — same feature counts, class counts and 8-bit fixed-point
 * precision — from per-class Gaussian prototypes.  Inference *cost*
 * (the paper's subject) depends only on these shapes plus model
 * sizes; accuracy columns are reported for the synthetic data and
 * flagged as not comparable to the paper (see DESIGN.md).
 */

#ifndef MOUSE_ML_DATASET_HH
#define MOUSE_ML_DATASET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace mouse
{

/** Feature vectors are 8-bit fixed point, as mapped onto MOUSE. */
using Features = std::vector<std::uint8_t>;

/** A labelled dataset. */
struct Dataset
{
    unsigned numFeatures = 0;
    unsigned numClasses = 0;
    std::vector<Features> x;
    std::vector<int> y;

    std::size_t size() const { return x.size(); }
};

/** Shapes matching the paper's benchmarks. */
enum class DataShape
{
    MnistLike,  ///< 784 features (28x28 pixels), 10 classes
    HarLike,    ///< 561 features, 6 activities
    AdultLike,  ///< 15 features, 2 classes
};

/** Feature/class counts for a shape. */
unsigned shapeFeatures(DataShape shape);
unsigned shapeClasses(DataShape shape);
std::string shapeName(DataShape shape);

/**
 * Generate a synthetic dataset: per-class prototype vectors with
 * additive Gaussian noise, quantized to 8 bits.
 *
 * @param shape Benchmark shape.
 * @param samples Number of samples.
 * @param seed RNG seed for the *samples* (deterministic).
 * @param noise Noise standard deviation in 8-bit LSBs; larger means
 *        harder classification.
 * @param proto_seed Seed for the per-class prototypes.  Train and
 *        test sets must share it (the default) to describe the same
 *        classification problem; vary only @p seed between them.
 */
Dataset makeSynthetic(DataShape shape, std::size_t samples,
                      std::uint64_t seed, double noise = 32.0,
                      std::uint64_t proto_seed = 0xC0FFEE);

/**
 * Load a dataset from CSV: one sample per line, features first
 * (integers 0..255), label last.  Lines starting with '#' and blank
 * lines are skipped.  This is the adoption path for users who *do*
 * have the real MNIST/HAR/ADULT files: export them to CSV and every
 * benchmark runs on real data.
 *
 * @param path File to read.
 * @param num_classes Number of label classes (labels must lie in
 *        [0, num_classes)).
 */
Dataset loadCsv(const std::string &path, unsigned num_classes);

/** Write a dataset in the same CSV format (round-trips loadCsv). */
void saveCsv(const Dataset &data, const std::string &path);

} // namespace mouse

#endif // MOUSE_ML_DATASET_HH
