#include "cpu.hh"

namespace mouse
{

std::vector<CpuBenchmark>
cpuSvmRows()
{
    return {
        {"MNIST", 169824e-6, 5094702e-6, 11813, 97.55},
        {"MNIST (Binarized)", 192370e-6, 5771085e-6, 12214, 97.37},
        {"HAR (integer)", 127494e-6, 3824822e-6, 2809, 95.96},
        {"ADULT", 4368e-6, 131052e-6, 1909, 76.12},
    };
}

std::vector<CpuBenchmark>
libSvmRows()
{
    return {
        {"MNIST", 7830e-6, 234900e-6, 8652, 98.05},
        {"MNIST (Binarized)", 19037e-6, 571116e-6, 23672, 92.49},
        {"HAR (integer)", 1701e-6, 51042e-6, 2632, 93.69},
        {"ADULT", 379e-6, 11370e-6, 15792, 78.62},
    };
}

} // namespace mouse
