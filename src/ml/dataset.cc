#include "dataset.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace mouse
{

unsigned
shapeFeatures(DataShape shape)
{
    switch (shape) {
      case DataShape::MnistLike: return 784;
      case DataShape::HarLike: return 561;
      case DataShape::AdultLike: return 15;
    }
    mouse_panic("bad shape");
}

unsigned
shapeClasses(DataShape shape)
{
    switch (shape) {
      case DataShape::MnistLike: return 10;
      case DataShape::HarLike: return 6;
      case DataShape::AdultLike: return 2;
    }
    mouse_panic("bad shape");
}

std::string
shapeName(DataShape shape)
{
    switch (shape) {
      case DataShape::MnistLike: return "MNIST";
      case DataShape::HarLike: return "HAR";
      case DataShape::AdultLike: return "ADULT";
    }
    return "?";
}

Dataset
makeSynthetic(DataShape shape, std::size_t samples, std::uint64_t seed,
              double noise, std::uint64_t proto_seed)
{
    Dataset data;
    data.numFeatures = shapeFeatures(shape);
    data.numClasses = shapeClasses(shape);

    // Per-class prototypes: sparse high-intensity patterns over a
    // dark background, loosely imitating pen strokes / sensor
    // signatures.  Seeded separately from the samples so train and
    // test splits describe the same classes.
    Rng proto_rng(proto_seed +
                  static_cast<std::uint64_t>(shape) * 7919);
    std::vector<std::vector<double>> prototypes(data.numClasses);
    for (auto &proto : prototypes) {
        proto.resize(data.numFeatures);
        for (double &v : proto) {
            v = proto_rng.chance(0.35)
                    ? proto_rng.uniform(120.0, 255.0)
                    : proto_rng.uniform(0.0, 60.0);
        }
    }

    Rng rng(seed);

    data.x.reserve(samples);
    data.y.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
        const int cls = static_cast<int>(rng.below(data.numClasses));
        Features f(data.numFeatures);
        const auto &proto =
            prototypes[static_cast<std::size_t>(cls)];
        for (unsigned j = 0; j < data.numFeatures; ++j) {
            const double v = proto[j] + noise * rng.normal();
            f[j] = static_cast<std::uint8_t>(
                std::clamp(v, 0.0, 255.0));
        }
        data.x.push_back(std::move(f));
        data.y.push_back(cls);
    }
    return data;
}

Dataset
loadCsv(const std::string &path, unsigned num_classes)
{
    std::ifstream in(path);
    if (!in) {
        mouse_fatal("cannot open dataset file '%s'", path.c_str());
    }
    Dataset data;
    data.numClasses = num_classes;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::vector<long> values;
        std::string field;
        while (std::getline(fields, field, ',')) {
            values.push_back(std::stol(field));
        }
        if (values.size() < 2) {
            mouse_fatal("%s:%zu: need at least one feature and a "
                        "label",
                        path.c_str(), line_no);
        }
        const long label = values.back();
        values.pop_back();
        if (label < 0 || label >= static_cast<long>(num_classes)) {
            mouse_fatal("%s:%zu: label %ld outside [0, %u)",
                        path.c_str(), line_no, label, num_classes);
        }
        if (data.numFeatures == 0) {
            data.numFeatures = static_cast<unsigned>(values.size());
        } else if (values.size() != data.numFeatures) {
            mouse_fatal("%s:%zu: expected %u features, got %zu",
                        path.c_str(), line_no, data.numFeatures,
                        values.size());
        }
        Features f(values.size());
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (values[i] < 0 || values[i] > 255) {
                mouse_fatal("%s:%zu: feature %zu out of 8-bit range",
                            path.c_str(), line_no, i);
            }
            f[i] = static_cast<std::uint8_t>(values[i]);
        }
        data.x.push_back(std::move(f));
        data.y.push_back(static_cast<int>(label));
    }
    if (data.size() == 0) {
        mouse_fatal("dataset file '%s' holds no samples",
                    path.c_str());
    }
    return data;
}

void
saveCsv(const Dataset &data, const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        mouse_fatal("cannot write dataset file '%s'", path.c_str());
    }
    out << "# features[" << data.numFeatures << "], label (0.."
        << data.numClasses - 1 << ")\n";
    for (std::size_t i = 0; i < data.size(); ++i) {
        for (std::uint8_t v : data.x[i]) {
            out << static_cast<int>(v) << ',';
        }
        out << data.y[i] << '\n';
    }
}

} // namespace mouse
