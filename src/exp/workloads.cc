#include "workloads.hh"

namespace mouse::exp
{

namespace
{

std::vector<Benchmark>
buildBenchmarks()
{
    std::vector<Benchmark> list;

    Benchmark mnist;
    mnist.name = "SVM MNIST";
    mnist.kind = WorkloadKind::Svm;
    mnist.capacityMB = 64;
    mnist.dataTiles = 448;  // 64 MB minus instruction tiles
    mnist.svm = SvmWorkload{"SVM MNIST", 11813, 784, 8, 10,
                            24, 32, 8, 40};
    list.push_back(mnist);

    Benchmark mnist_bin;
    mnist_bin.name = "SVM MNIST (Bin)";
    mnist_bin.kind = WorkloadKind::Svm;
    mnist_bin.capacityMB = 8;
    mnist_bin.dataTiles = 56;
    mnist_bin.svm = SvmWorkload{"SVM MNIST (Bin)", 12214, 784, 1, 10,
                                11, 22, 8, 30};
    list.push_back(mnist_bin);

    Benchmark har;
    har.name = "SVM HAR";
    har.kind = WorkloadKind::Svm;
    har.capacityMB = 16;
    har.dataTiles = 112;
    har.svm = SvmWorkload{"SVM HAR", 2809, 561, 8, 6, 24, 32, 8, 40};
    list.push_back(har);

    Benchmark adult;
    adult.name = "SVM ADULT";
    adult.kind = WorkloadKind::Svm;
    adult.capacityMB = 1;
    adult.dataTiles = 7;
    adult.svm = SvmWorkload{"SVM ADULT", 1909, 15, 8, 2, 20, 28, 8,
                            36};
    list.push_back(adult);

    Benchmark finn;
    finn.name = "BNN FINN MNIST";
    finn.kind = WorkloadKind::Bnn;
    finn.capacityMB = 8;
    finn.dataTiles = 56;
    finn.bnn = finnShape();
    list.push_back(finn);

    Benchmark fpbnn;
    fpbnn.name = "BNN FP-BNN MNIST";
    fpbnn.kind = WorkloadKind::Bnn;
    fpbnn.capacityMB = 16;
    fpbnn.dataTiles = 112;
    fpbnn.bnn = fpBnnShape();
    list.push_back(fpbnn);

    return list;
}

MouseShape
shapeFor(const Benchmark &bench)
{
    MouseShape shape;
    shape.numDataTiles = bench.dataTiles;
    return shape;
}

} // namespace

const std::vector<Benchmark> &
paperBenchmarks()
{
    static const std::vector<Benchmark> list = buildBenchmarks();
    return list;
}

Trace
traceFor(const GateLibrary &lib, const Benchmark &bench,
         MappingInfo *info)
{
    return assembleTrace(bench, measureKernels(lib, kernelsFor(bench)),
                         info);
}

std::vector<Kernel>
kernelsFor(const Benchmark &bench)
{
    const MouseShape shape = shapeFor(bench);
    return bench.kind == WorkloadKind::Svm
               ? svmKernels(bench.svm, shape)
               : bnnKernels(bench.bnn, shape);
}

Trace
assembleTrace(const Benchmark &bench, const KernelMixes &mixes,
              MappingInfo *info)
{
    const MouseShape shape = shapeFor(bench);
    return bench.kind == WorkloadKind::Svm
               ? assembleSvmTrace(bench.svm, shape, mixes, info)
               : assembleBnnTrace(bench.bnn, shape, mixes, info);
}

const std::vector<Watts> &
powerSweep()
{
    static const std::vector<Watts> powers = {
        60e-6, 100e-6, 200e-6, 500e-6, 1e-3, 2e-3, 5e-3};
    return powers;
}

} // namespace mouse::exp
