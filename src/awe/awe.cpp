#include "awe/awe.hpp"

#include <cmath>
#include <complex>
#include <stdexcept>

namespace amsyn::awe {

double AweModel::magnitudeAt(double frequencyHz) const {
  const std::complex<double> s{0.0, 2.0 * M_PI * frequencyHz};
  return std::abs(pr.evaluate(s));
}

double AweModel::elmoreDelay() const {
  if (moments.size() < 2 || moments[0] == 0.0)
    throw std::logic_error("elmoreDelay: need m0 != 0 and m1");
  return -moments[1] / moments[0];
}

double AweModel::stepResponse(double t) const { return pr.step(t); }

std::vector<double> computeMoments(
    const std::function<num::VecD(const num::VecD&)>& solveG,
    const std::function<num::VecD(const num::VecD&)>& multiplyC, const num::VecD& b,
    std::size_t outputIndex, std::size_t order) {
  if (order == 0) throw std::invalid_argument("computeMoments: order must be >= 1");
  std::vector<double> moments;
  moments.reserve(2 * order);
  num::VecD mk = solveG(b);  // m_0 vector
  moments.push_back(mk.at(outputIndex));
  for (std::size_t k = 1; k < 2 * order; ++k) {
    num::VecD cm = multiplyC(mk);
    for (double& x : cm) x = -x;
    mk = solveG(cm);
    moments.push_back(mk.at(outputIndex));
  }
  return moments;
}

AweModel modelFromMoments(std::vector<double> moments) {
  AweModel model;
  model.rational = num::padeAuto(moments);
  model.pr = num::toPoleResidue(model.rational, /*enforceStability=*/true);
  model.moments = std::move(moments);
  return model;
}

AweModel aweLinearSystem(const num::MatrixD& g, const num::MatrixD& c, const num::VecD& b,
                         std::size_t outputIndex, std::size_t order) {
  const num::LUD lu(g);
  auto solveG = [&](const num::VecD& r) { return lu.solve(r); };
  auto multiplyC = [&](const num::VecD& x) { return c * x; };
  return modelFromMoments(computeMoments(solveG, multiplyC, b, outputIndex, order));
}

AweModel aweTransfer(const sim::Mna& mna, const sim::DcResult& op,
                     const std::string& outputNode, std::size_t order) {
  if (!op.converged) throw std::invalid_argument("aweTransfer: op not converged");
  const auto node = mna.netlist().findNode(outputNode);
  if (!node || *node == circuit::kGround)
    throw std::invalid_argument("aweTransfer: bad output node " + outputNode);

  const sim::AcSystem ac = mna.linearize(op.x);
  return aweLinearSystem(mna.toDense(ac.g), mna.toDense(ac.c), ac.b, mna.nodeIndex(*node),
                         order);
}

}  // namespace amsyn::awe
