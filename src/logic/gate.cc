#include "gate.hh"

#include "common/logging.hh"

namespace mouse
{

namespace
{

int
popcount3(unsigned inputs)
{
    return static_cast<int>((inputs & 1) + ((inputs >> 1) & 1) +
                            ((inputs >> 2) & 1));
}

} // namespace

Bit
gateTruth(GateType g, unsigned inputs)
{
    const unsigned a = inputs & 1;
    const unsigned b = (inputs >> 1) & 1;
    const unsigned c = (inputs >> 2) & 1;
    switch (g) {
      case GateType::kBuf:
        return static_cast<Bit>(a);
      case GateType::kNot:
        return static_cast<Bit>(!a);
      case GateType::kAnd2:
        return static_cast<Bit>(a & b);
      case GateType::kNand2:
        return static_cast<Bit>(!(a & b));
      case GateType::kOr2:
        return static_cast<Bit>(a | b);
      case GateType::kNor2:
        return static_cast<Bit>(!(a | b));
      case GateType::kAnd3:
        return static_cast<Bit>(a & b & c);
      case GateType::kNand3:
        return static_cast<Bit>(!(a & b & c));
      case GateType::kOr3:
        return static_cast<Bit>(a | b | c);
      case GateType::kNor3:
        return static_cast<Bit>(!(a | b | c));
      case GateType::kMaj3:
        return static_cast<Bit>(popcount3(inputs) >= 2);
      case GateType::kMin3:
        return static_cast<Bit>(popcount3(inputs) < 2);
      default:
        mouse_panic("bad gate type %d", static_cast<int>(g));
    }
}

std::string
gateName(GateType g)
{
    switch (g) {
      case GateType::kBuf: return "BUF";
      case GateType::kNot: return "NOT";
      case GateType::kAnd2: return "AND2";
      case GateType::kNand2: return "NAND2";
      case GateType::kOr2: return "OR2";
      case GateType::kNor2: return "NOR2";
      case GateType::kAnd3: return "AND3";
      case GateType::kNand3: return "NAND3";
      case GateType::kOr3: return "OR3";
      case GateType::kNor3: return "NOR3";
      case GateType::kMaj3: return "MAJ3";
      case GateType::kMin3: return "MIN3";
      default: return "???";
    }
}

} // namespace mouse
