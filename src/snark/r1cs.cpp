#include "snark/r1cs.hpp"

#include <stdexcept>

#include "crypto/ecc.hpp"

namespace zendoo::snark {

const u256 kFieldModulus = crypto::secp256k1::kN;

u256 freduce(const u256& a) { return a.mod(kFieldModulus); }
u256 fadd(const u256& a, const u256& b) {
  return u256::addmod(a, b, kFieldModulus);
}
u256 fsub(const u256& a, const u256& b) {
  return u256::submod(a, b, kFieldModulus);
}
u256 fmul(const u256& a, const u256& b) {
  return u256::mulmod(a, b, kFieldModulus);
}

std::uint32_t ConstraintSystem::allocate_public() {
  if (witness_allocated_) {
    throw std::logic_error(
        "ConstraintSystem: public inputs must be allocated before witness "
        "variables (index layout is (1, public..., witness...))");
  }
  return 1 + num_public_++;
}

std::uint32_t ConstraintSystem::allocate_witness() {
  witness_allocated_ = true;
  return 1 + num_public_ + num_witness_++;
}

void ConstraintSystem::add_constraint(LinComb a, LinComb b, LinComb c) {
  for (const LinComb* lc : {&a, &b, &c}) {
    for (const LinearTerm& t : *lc) {
      if (t.var >= num_variables()) {
        throw std::out_of_range("ConstraintSystem: unallocated variable");
      }
    }
  }
  constraints_.push_back({std::move(a), std::move(b), std::move(c)});
}

std::uint32_t ConstraintSystem::mul(std::uint32_t x, std::uint32_t y) {
  std::uint32_t w = allocate_witness();
  add_constraint({{x}}, {{y}}, {{w}});
  return w;
}

std::uint32_t ConstraintSystem::add(std::uint32_t x, std::uint32_t y) {
  std::uint32_t w = allocate_witness();
  add_constraint({{x}, {y}}, {{kOne}}, {{w}});
  return w;
}

std::uint32_t ConstraintSystem::add_const(std::uint32_t x, const u256& k) {
  std::uint32_t w = allocate_witness();
  add_constraint({{x}, {kOne, freduce(k)}}, {{kOne}}, {{w}});
  return w;
}

void ConstraintSystem::enforce_equal(std::uint32_t x, std::uint32_t y) {
  add_constraint({{x}}, {{kOne}}, {{y}});
}

void ConstraintSystem::enforce_boolean(std::uint32_t x) {
  // x * (x - 1) = 0
  add_constraint({{x}}, {{x}, {kOne, fsub(u256{}, u256{1})}}, {});
}

void ConstraintSystem::enforce_const(std::uint32_t x, const u256& k) {
  add_constraint({{x}}, {{kOne}}, {{kOne, freduce(k)}});
}

u256 ConstraintSystem::eval_lc(const LinComb& lc,
                               const std::vector<u256>& z) const {
  u256 acc{};
  for (const LinearTerm& t : lc) {
    acc = fadd(acc, fmul(t.coeff, z[t.var]));
  }
  return acc;
}

bool ConstraintSystem::is_satisfied(
    const std::vector<u256>& public_vals,
    const std::vector<u256>& witness_vals) const {
  if (public_vals.size() != num_public_ ||
      witness_vals.size() != num_witness_) {
    return false;
  }
  std::vector<u256> z;
  z.reserve(num_variables());
  z.emplace_back(1);
  for (const auto& v : public_vals) z.push_back(freduce(v));
  for (const auto& v : witness_vals) z.push_back(freduce(v));
  for (const Constraint& c : constraints_) {
    if (fmul(eval_lc(c.a, z), eval_lc(c.b, z)) != eval_lc(c.c, z)) {
      return false;
    }
  }
  return true;
}

Digest ConstraintSystem::structure_hash() const {
  crypto::Hasher h(crypto::Domain::kSnarkKey);
  h.write_u64(num_public_).write_u64(num_witness_);
  h.write_u64(constraints_.size());
  for (const Constraint& c : constraints_) {
    for (const LinComb* lc : {&c.a, &c.b, &c.c}) {
      h.write_u64(lc->size());
      for (const LinearTerm& t : *lc) {
        h.write_u64(t.var).write(t.coeff);
      }
    }
  }
  return h.finalize();
}

}  // namespace zendoo::snark
