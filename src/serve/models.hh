/**
 * @file
 * Servable models: classifiers compiled for column-slot batching.
 *
 * The serving layer exploits the word-parallel execution model's
 * per-column independence (docs/ARCHITECTURE.md): every column of a
 * gate pass computes the same kernel on its own data, so one pass
 * over W columns can carry W/colsPerRequest *independent* inference
 * requests.  A PackedModel is a classifier compiled once against an
 * engine geometry with its per-request column block replicated into
 * every slot; the service packs one admitted request per slot,
 * zero-fills the rest, runs a single pass, and reads each slot's
 * prediction back.
 *
 * Two classifier families are servable:
 *  - BNN argmax: one BnnLayer whose outputs are the classes.  Each
 *    slot spans numClasses columns; every column XNOR-popcounts the
 *    slot's input against one class's weights
 *    (buildSmallBnnNeuronKernel) and the host takes the argmax of
 *    the per-class popcounts.
 *  - Binary SVM: one support vector per column
 *    (buildSmallSvmKernel); each slot spans numSupportVectors
 *    columns and the host finishes sign(sum coef_s * (sv_s . x)^2 +
 *    bias) from the truncated squares the array leaves behind.
 */

#ifndef MOUSE_SERVE_MODELS_HH
#define MOUSE_SERVE_MODELS_HH

#include <string>
#include <vector>

#include "arch/tile_grid.hh"
#include "compile/program.hh"
#include "logic/gate_library.hh"
#include "ml/bnn.hh"
#include "ml/svm.hh"

namespace mouse::serve
{

/** Index of a registered model within its InferenceService. */
using ModelId = std::uint32_t;

/**
 * One request's payload.  BNN models expect layer.inputs bits (each
 * element 0/1); SVM models expect dim features of inputBits bits.
 */
using Input = std::vector<std::uint8_t>;

/** A BNN argmax classifier offered for serving. */
struct BnnServeModel
{
    std::string name;
    /** Single layer; outputs = classes, fired by popcount argmax. */
    BnnLayer layer;
};

/** A binary (two-class) polynomial-kernel SVM offered for serving. */
struct SvmServeModel
{
    std::string name;
    BinarySvm svm;
    /** Elements per feature vector. */
    unsigned dim = 0;
    /** Feature precision in bits (<= 8). */
    unsigned inputBits = 4;
    /** Dot-product accumulator width; squares carry 2x this. */
    unsigned accBits = 12;
};

/**
 * A classifier compiled against one engine geometry, with weights
 * replicated across all column slots.  Immutable after compile, so
 * one PackedModel is safely shared by every engine of a service.
 */
class PackedModel
{
  public:
    static PackedModel compileBnn(const GateLibrary &lib,
                                  const ArrayConfig &cfg, ModelId id,
                                  BnnServeModel m);
    static PackedModel compileSvm(const GateLibrary &lib,
                                  const ArrayConfig &cfg, ModelId id,
                                  SvmServeModel m);

    ModelId id() const { return id_; }
    const std::string &name() const { return name_; }
    const Program &program() const { return program_; }

    /** Columns one request occupies (classes / support vectors). */
    unsigned colsPerRequest() const { return colsPerRequest_; }
    /** Independent requests one gate pass carries. */
    unsigned slots() const { return slots_; }
    /** Elements a request payload must have. */
    std::size_t inputSize() const { return inputSize_; }
    /** Width of one payload element (1 for BNN bits). */
    unsigned
    elementBits() const
    {
        return kind_ == Kind::kBnn ? 1 : inputBits_;
    }

    /** Write the replicated weights/thresholds into every slot,
     *  each row as whole words.  Once per model switch of an engine;
     *  inputs are packed per batch. */
    void deployWeights(TileGrid &grid) const;

    /** Pack one request's payload into slot @p slot: each input row
     *  is one word-masked write across the slot's columns. */
    void packInput(TileGrid &grid, unsigned slot,
                   const Input &in) const;

    /** Zero-fill slot @p slot's input rows.  Every unused slot is
     *  cleared each batch so a pass's gate energies are a pure
     *  function of the batch contents — engine history cannot leak
     *  into the accounting. */
    void clearInput(TileGrid &grid, unsigned slot) const;

    /** Read slot @p slot's class prediction after a pass. */
    int readPrediction(const TileGrid &grid, unsigned slot) const;

    /** Validate a payload (size and element range). */
    bool validInput(const Input &in) const;

  private:
    enum class Kind
    {
        kBnn,
        kSvm,
    };

    PackedModel() = default;

    /** Write bitOf(e, b) into the row of bit b of payload element
     *  e, across every column of slot @p slot. */
    template <typename BitOf>
    void fillInputRows(TileGrid &grid, unsigned slot,
                       BitOf &&bitOf) const;

    ModelId id_ = 0;
    std::string name_;
    Kind kind_ = Kind::kBnn;
    Program program_;
    unsigned colsPerRequest_ = 0;
    unsigned slots_ = 0;
    std::size_t inputSize_ = 0;
    /** Payload element e bit b sits at row
     *  inputBase_ + e*inputStride_ + 2b. */
    RowAddr inputBase_ = 0;
    unsigned inputStride_ = 0;

    // BNN layout/readback.
    BnnLayer layer_;
    unsigned threshBits_ = 0;
    std::vector<RowAddr> countRows_;

    // SVM layout/readback.
    BinarySvm svm_;
    unsigned inputBits_ = 0;
    std::vector<RowAddr> squareRows_;
};

} // namespace mouse::serve

#endif // MOUSE_SERVE_MODELS_HH
