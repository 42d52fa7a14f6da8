//! Scalar types, values and the elementwise operator kernels.
//!
//! Voodoo vectors hold fixed-size scalar fields (paper §2.1: "We currently
//! only allow scalar types and nested structs as fields"). This module
//! defines the supported scalar types, dynamic scalar values (used by the
//! reference interpreter and as compile-time constants), and the semantics
//! of the binary operators of Table 2.

use std::fmt;

use crate::error::{Result, VoodooError};

/// The scalar types supported in structured vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// Boolean; produced by comparisons, consumed by logical ops and
    /// coerced to 0/1 in arithmetic (used heavily by predication, Fig. 1).
    Bool,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer (also the type of positions / ids).
    I64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
}

impl ScalarType {
    /// Size of one value in bytes (used by cost models and persistence).
    pub fn byte_width(self) -> usize {
        match self {
            ScalarType::Bool => 1,
            ScalarType::I32 | ScalarType::F32 => 4,
            ScalarType::I64 | ScalarType::F64 => 8,
        }
    }

    /// Whether the type is an integer (Bool counts, as 0/1).
    pub fn is_integer(self) -> bool {
        matches!(self, ScalarType::Bool | ScalarType::I32 | ScalarType::I64)
    }

    /// Whether the type is a float.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::F32 | ScalarType::F64)
    }

    /// The OpenCL C spelling of this type (used by the kernel renderer).
    pub fn opencl_name(self) -> &'static str {
        match self {
            ScalarType::Bool => "char",
            ScalarType::I32 => "int",
            ScalarType::I64 => "long",
            ScalarType::F32 => "float",
            ScalarType::F64 => "double",
        }
    }
}

/// A dynamically typed scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarValue {
    /// A boolean.
    Bool(bool),
    /// A 32-bit signed integer.
    I32(i32),
    /// A 64-bit signed integer.
    I64(i64),
    /// A 32-bit float.
    F32(f32),
    /// A 64-bit float.
    F64(f64),
}

impl ScalarValue {
    /// The type of this value.
    pub fn ty(&self) -> ScalarType {
        match self {
            ScalarValue::Bool(_) => ScalarType::Bool,
            ScalarValue::I32(_) => ScalarType::I32,
            ScalarValue::I64(_) => ScalarType::I64,
            ScalarValue::F32(_) => ScalarType::F32,
            ScalarValue::F64(_) => ScalarType::F64,
        }
    }

    /// Integer view (booleans as 0/1, floats truncated).
    pub fn as_i64(&self) -> i64 {
        match *self {
            ScalarValue::Bool(b) => b as i64,
            ScalarValue::I32(v) => v as i64,
            ScalarValue::I64(v) => v,
            ScalarValue::F32(v) => v as i64,
            ScalarValue::F64(v) => v as i64,
        }
    }

    /// Float view.
    pub fn as_f64(&self) -> f64 {
        match *self {
            ScalarValue::Bool(b) => b as i64 as f64,
            ScalarValue::I32(v) => v as f64,
            ScalarValue::I64(v) => v as f64,
            ScalarValue::F32(v) => v as f64,
            ScalarValue::F64(v) => v,
        }
    }

    /// Truthiness: non-zero / true.
    pub fn is_truthy(&self) -> bool {
        match *self {
            ScalarValue::Bool(b) => b,
            ScalarValue::I32(v) => v != 0,
            ScalarValue::I64(v) => v != 0,
            ScalarValue::F32(v) => v != 0.0,
            ScalarValue::F64(v) => v != 0.0,
        }
    }

    /// Cast to the given type (C-like conversion).
    pub fn cast(&self, ty: ScalarType) -> ScalarValue {
        match ty {
            ScalarType::Bool => ScalarValue::Bool(self.is_truthy()),
            ScalarType::I32 => ScalarValue::I32(self.as_i64() as i32),
            ScalarType::I64 => ScalarValue::I64(self.as_i64()),
            ScalarType::F32 => ScalarValue::F32(self.as_f64() as f32),
            ScalarType::F64 => ScalarValue::F64(self.as_f64()),
        }
    }
}

impl fmt::Display for ScalarValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarValue::Bool(v) => write!(f, "{v}"),
            ScalarValue::I32(v) => write!(f, "{v}"),
            ScalarValue::I64(v) => write!(f, "{v}"),
            ScalarValue::F32(v) => write!(f, "{v}"),
            ScalarValue::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<bool> for ScalarValue {
    fn from(v: bool) -> Self {
        ScalarValue::Bool(v)
    }
}
impl From<i32> for ScalarValue {
    fn from(v: i32) -> Self {
        ScalarValue::I32(v)
    }
}
impl From<i64> for ScalarValue {
    fn from(v: i64) -> Self {
        ScalarValue::I64(v)
    }
}
impl From<f32> for ScalarValue {
    fn from(v: f32) -> Self {
        ScalarValue::F32(v)
    }
}
impl From<f64> for ScalarValue {
    fn from(v: f64) -> Self {
        ScalarValue::F64(v)
    }
}

/// Binary elementwise operators (paper Table 2, "Maintenance" block).
///
/// `Greater`/`Equals` are the paper's primitive comparisons; the remaining
/// comparison spellings are first-class conveniences that lower to the same
/// machine code and keep generated plans readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Elementwise addition.
    Add,
    /// Elementwise subtraction.
    Subtract,
    /// Elementwise multiplication.
    Multiply,
    /// Elementwise division (integer division truncates; ÷0 gives 0/ε).
    Divide,
    /// Elementwise remainder.
    Modulo,
    /// Left shift by the right operand.
    BitShift,
    /// Logical conjunction of non-zero-ness.
    LogicalAnd,
    /// Logical disjunction of non-zero-ness.
    LogicalOr,
    /// `lhs > rhs` (paper-primitive comparison).
    Greater,
    /// `lhs >= rhs`.
    GreaterEquals,
    /// `lhs < rhs`.
    Less,
    /// `lhs <= rhs`.
    LessEquals,
    /// `lhs == rhs` (paper-primitive comparison).
    Equals,
    /// `lhs != rhs`.
    NotEquals,
}

impl BinOp {
    /// Whether the result type is `Bool` regardless of the operand types.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Greater
                | BinOp::GreaterEquals
                | BinOp::Less
                | BinOp::LessEquals
                | BinOp::Equals
                | BinOp::NotEquals
        )
    }

    /// Whether this is a logical connective.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogicalAnd | BinOp::LogicalOr)
    }

    /// Numeric type promotion for arithmetic: bool→i32, mixed int/float→f64,
    /// otherwise widest of the pair.
    pub fn promote(lhs: ScalarType, rhs: ScalarType) -> ScalarType {
        use ScalarType::*;
        let widen = |t: ScalarType| if t == Bool { I32 } else { t };
        let (l, r) = (widen(lhs), widen(rhs));
        match (l, r) {
            (I32, I32) => I32,
            (I64, I32) | (I32, I64) | (I64, I64) => I64,
            (F32, F32) => F32,
            (F64, _) | (_, F64) => F64,
            (F32, _) | (_, F32) => F64,
            _ => unreachable!("widen removed Bool"),
        }
    }

    /// The result type of applying this operator to operands of the given
    /// types, or an error if the combination is invalid.
    pub fn result_type(self, lhs: ScalarType, rhs: ScalarType) -> Result<ScalarType> {
        if self.is_comparison() {
            return Ok(ScalarType::Bool);
        }
        if self.is_logical() {
            if lhs.is_float() || rhs.is_float() {
                return Err(VoodooError::TypeMismatch {
                    context: format!("{self:?}"),
                    lhs,
                    rhs,
                });
            }
            return Ok(ScalarType::Bool);
        }
        if (self == BinOp::BitShift || self == BinOp::Modulo) && (lhs.is_float() || rhs.is_float())
        {
            return Err(VoodooError::TypeMismatch {
                context: format!("{self:?}"),
                lhs,
                rhs,
            });
        }
        Ok(Self::promote(lhs, rhs))
    }

    /// Evaluate the operator on two scalar values — the reference
    /// semantics. The compiled backend's typed lane kernels
    /// (`voodoo_compile::expr`) reproduce `eval(..).cast(ty)` bit for bit
    /// and are property-tested against it for every operator and
    /// operand/result type.
    ///
    /// Integer division/modulo by zero yields 0 — Voodoo programs are
    /// deterministic and must not trap (paper §2, "Deterministic").
    pub fn eval(self, lhs: ScalarValue, rhs: ScalarValue) -> ScalarValue {
        use BinOp::*;
        match self {
            Greater => ScalarValue::Bool(cmp(lhs, rhs) == std::cmp::Ordering::Greater),
            GreaterEquals => ScalarValue::Bool(cmp(lhs, rhs) != std::cmp::Ordering::Less),
            Less => ScalarValue::Bool(cmp(lhs, rhs) == std::cmp::Ordering::Less),
            LessEquals => ScalarValue::Bool(cmp(lhs, rhs) != std::cmp::Ordering::Greater),
            Equals => ScalarValue::Bool(cmp(lhs, rhs) == std::cmp::Ordering::Equal),
            NotEquals => ScalarValue::Bool(cmp(lhs, rhs) != std::cmp::Ordering::Equal),
            LogicalAnd => ScalarValue::Bool(lhs.is_truthy() && rhs.is_truthy()),
            LogicalOr => ScalarValue::Bool(lhs.is_truthy() || rhs.is_truthy()),
            BitShift => ScalarValue::I64(lhs.as_i64() << (rhs.as_i64() & 63)),
            Add | Subtract | Multiply | Divide | Modulo => {
                let ty = Self::promote(lhs.ty(), rhs.ty());
                if ty.is_float() {
                    let (a, b) = (lhs.as_f64(), rhs.as_f64());
                    let v = match self {
                        Add => a + b,
                        Subtract => a - b,
                        Multiply => a * b,
                        Divide => a / b,
                        Modulo => a % b,
                        _ => unreachable!(),
                    };
                    if ty == ScalarType::F32 {
                        ScalarValue::F32(v as f32)
                    } else {
                        ScalarValue::F64(v)
                    }
                } else {
                    let (a, b) = (lhs.as_i64(), rhs.as_i64());
                    let v = match self {
                        Add => a.wrapping_add(b),
                        Subtract => a.wrapping_sub(b),
                        Multiply => a.wrapping_mul(b),
                        Divide => {
                            if b == 0 {
                                0
                            } else {
                                a.wrapping_div(b)
                            }
                        }
                        Modulo => {
                            if b == 0 {
                                0
                            } else {
                                a.wrapping_rem(b)
                            }
                        }
                        _ => unreachable!(),
                    };
                    if ty == ScalarType::I32 {
                        ScalarValue::I32(v as i32)
                    } else {
                        ScalarValue::I64(v)
                    }
                }
            }
        }
    }

    /// The operator's C / OpenCL spelling (for the kernel renderer).
    pub fn c_symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Subtract => "-",
            BinOp::Multiply => "*",
            BinOp::Divide => "/",
            BinOp::Modulo => "%",
            BinOp::BitShift => "<<",
            BinOp::LogicalAnd => "&&",
            BinOp::LogicalOr => "||",
            BinOp::Greater => ">",
            BinOp::GreaterEquals => ">=",
            BinOp::Less => "<",
            BinOp::LessEquals => "<=",
            BinOp::Equals => "==",
            BinOp::NotEquals => "!=",
        }
    }
}

/// Compare two scalar values numerically (floats compared as f64; total
/// order with NaN greater than everything, like `f64::total_cmp` collapsed).
fn cmp(lhs: ScalarValue, rhs: ScalarValue) -> std::cmp::Ordering {
    if lhs.ty().is_float() || rhs.ty().is_float() {
        lhs.as_f64().total_cmp(&rhs.as_f64())
    } else {
        lhs.as_i64().cmp(&rhs.as_i64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_rules() {
        use ScalarType::*;
        assert_eq!(BinOp::promote(I32, I32), I32);
        assert_eq!(BinOp::promote(I32, I64), I64);
        assert_eq!(BinOp::promote(Bool, I32), I32);
        assert_eq!(BinOp::promote(F32, F32), F32);
        assert_eq!(BinOp::promote(F32, I32), F64);
        assert_eq!(BinOp::promote(F64, F32), F64);
    }

    #[test]
    fn comparisons_yield_bool() {
        let r = BinOp::Greater.eval(ScalarValue::I32(5), ScalarValue::I32(3));
        assert_eq!(r, ScalarValue::Bool(true));
        assert_eq!(
            BinOp::Greater
                .result_type(ScalarType::F32, ScalarType::I64)
                .unwrap(),
            ScalarType::Bool
        );
    }

    #[test]
    fn integer_arithmetic() {
        assert_eq!(
            BinOp::Divide.eval(ScalarValue::I64(7), ScalarValue::I64(2)),
            ScalarValue::I64(3)
        );
        assert_eq!(
            BinOp::Modulo.eval(ScalarValue::I32(7), ScalarValue::I32(3)),
            ScalarValue::I32(1)
        );
        // Division by zero is total (yields 0), not a trap.
        assert_eq!(
            BinOp::Divide.eval(ScalarValue::I64(7), ScalarValue::I64(0)),
            ScalarValue::I64(0)
        );
    }

    #[test]
    fn float_arithmetic_promotes() {
        assert_eq!(
            BinOp::Add.eval(ScalarValue::F32(1.5), ScalarValue::F32(2.5)),
            ScalarValue::F32(4.0)
        );
        assert_eq!(
            BinOp::Add.eval(ScalarValue::F32(1.5), ScalarValue::I32(1)),
            ScalarValue::F64(2.5)
        );
    }

    #[test]
    fn bool_coerces_in_arithmetic() {
        // Predication relies on multiplying by a 0/1 predicate outcome.
        assert_eq!(
            BinOp::Multiply.eval(ScalarValue::Bool(true), ScalarValue::I64(42)),
            ScalarValue::I64(42)
        );
        assert_eq!(
            BinOp::Multiply.eval(ScalarValue::Bool(false), ScalarValue::I64(42)),
            ScalarValue::I64(0)
        );
    }

    #[test]
    fn logical_ops_reject_floats() {
        assert!(BinOp::LogicalAnd
            .result_type(ScalarType::F32, ScalarType::Bool)
            .is_err());
        assert_eq!(
            BinOp::LogicalOr.eval(ScalarValue::I32(0), ScalarValue::I32(7)),
            ScalarValue::Bool(true)
        );
    }

    #[test]
    fn shift() {
        assert_eq!(
            BinOp::BitShift.eval(ScalarValue::I32(3), ScalarValue::I32(4)),
            ScalarValue::I64(48)
        );
    }

    #[test]
    fn casts() {
        assert_eq!(
            ScalarValue::F64(3.9).cast(ScalarType::I32),
            ScalarValue::I32(3)
        );
        assert_eq!(
            ScalarValue::I64(0).cast(ScalarType::Bool),
            ScalarValue::Bool(false)
        );
    }
}
