//! Terms, variables, substitutions and valuations.

use crate::symbol::Symbol;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A variable, identified by an interned name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Var(pub Symbol);

impl Var {
    /// Interns a variable name.
    #[must_use]
    pub fn new(name: &str) -> Var {
        Var(Symbol::new(name))
    }

    /// The variable's name.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({})", self.0.as_str())
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// A term: a variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Value),
}

impl Term {
    /// Shorthand for a variable term.
    #[must_use]
    pub fn var(name: &str) -> Term {
        Term::Var(Var::new(name))
    }

    /// Shorthand for a symbolic-constant term.
    #[must_use]
    pub fn sym(name: &str) -> Term {
        Term::Const(Value::sym(name))
    }

    /// Shorthand for an integer-constant term.
    #[must_use]
    pub fn int(v: i64) -> Term {
        Term::Const(Value::int(v))
    }

    /// Returns the variable if this is one.
    #[must_use]
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// Returns the constant if this is one.
    #[must_use]
    pub fn as_const(&self) -> Option<Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(*c),
        }
    }

    /// `true` iff the term is ground (a constant).
    #[must_use]
    pub fn is_ground(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl fmt::Display for Term {
    /// Rule-context rendering: symbolic constants that the parser would
    /// mistake for variables (lowercase/underscore start) or that are not
    /// plain identifiers are quoted, so `Display` output re-parses to the
    /// same term.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Value::Sym(s)) => {
                let text = s.as_str();
                let is_upper_ident = text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() && c.is_uppercase())
                    && text.chars().all(|c| c.is_alphanumeric() || c == '_');
                if is_upper_ident {
                    write!(f, "{text}")
                } else {
                    let quote = crate::parser::quote_for(text);
                    write!(f, "{quote}{text}{quote}")
                }
            }
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v:?}"),
            Term::Const(c) => write!(f, "Const({c})"),
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

/// A substitution `θ = {x₁/e₁, …, x_p/e_p}` mapping variables to terms
/// (constants *or* variables), as used in the Section 4 template
/// constraints.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Substitution {
    map: BTreeMap<Var, Term>,
}

impl Substitution {
    /// The empty substitution.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from `(variable, term)` bindings; later bindings overwrite.
    #[must_use]
    pub fn from_bindings<I: IntoIterator<Item = (Var, Term)>>(bindings: I) -> Self {
        Substitution {
            map: bindings.into_iter().collect(),
        }
    }

    /// Adds a binding.
    pub fn bind(&mut self, var: Var, term: Term) {
        self.map.insert(var, term);
    }

    /// Looks up a variable.
    #[must_use]
    pub fn get(&self, var: Var) -> Option<Term> {
        self.map.get(&var).copied()
    }

    /// Applies the substitution to a term (one step, no chasing).
    #[must_use]
    pub fn apply(&self, term: Term) -> Term {
        match term {
            Term::Var(v) => self.get(v).unwrap_or(term),
            Term::Const(_) => term,
        }
    }

    /// Iterates over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Term)> + '_ {
        self.map.iter().map(|(&v, &t)| (v, t))
    }

    /// Number of bindings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff there are no bindings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (v, t)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}/{t}")?;
        }
        f.write_str("}")
    }
}

/// A valuation: a partial mapping from variables to constants (implicitly
/// the identity on constants), per Section 4.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Valuation {
    map: BTreeMap<Var, Value>,
}

impl Valuation {
    /// The empty valuation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from bindings.
    #[must_use]
    pub fn from_bindings<I: IntoIterator<Item = (Var, Value)>>(bindings: I) -> Self {
        Valuation {
            map: bindings.into_iter().collect(),
        }
    }

    /// Looks up a variable.
    #[must_use]
    pub fn get(&self, var: Var) -> Option<Value> {
        self.map.get(&var).copied()
    }

    /// Binds a variable, returning `false` (and leaving the valuation
    /// unchanged) if it is already bound to a *different* value.
    pub fn bind(&mut self, var: Var, value: Value) -> bool {
        match self.map.get(&var) {
            Some(&existing) => existing == value,
            None => {
                self.map.insert(var, value);
                true
            }
        }
    }

    /// Removes a binding (backtracking support).
    pub fn unbind(&mut self, var: Var) {
        self.map.remove(&var);
    }

    /// Applies to a term, yielding a constant when possible.
    #[must_use]
    pub fn apply(&self, term: Term) -> Option<Value> {
        match term {
            Term::Var(v) => self.get(v),
            Term::Const(c) => Some(c),
        }
    }

    /// Compatibility with a substitution (Section 4): `σ` is compatible
    /// with `θ = {x₁/e₁, …}` iff `σ(x_i) = σ(e_i)` for every binding.
    ///
    /// Unbound variables make the equation unverifiable; per the template
    /// semantics (where `σ` embeds the whole tableau, hence binds every
    /// variable of the constraint) we treat unbound as *incompatible*.
    #[must_use]
    pub fn compatible_with(&self, theta: &Substitution) -> bool {
        theta
            .iter()
            .all(|(x, e)| match (self.get(x), self.apply(e)) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            })
    }

    /// Iterates over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Value)> + '_ {
        self.map.iter().map(|(&v, &c)| (v, c))
    }

    /// Number of bound variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff nothing is bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl fmt::Display for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (v, c)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}↦{c}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_accessors() {
        assert_eq!(Term::var("x").as_var(), Some(Var::new("x")));
        assert_eq!(Term::var("x").as_const(), None);
        assert_eq!(Term::sym("a").as_const(), Some(Value::sym("a")));
        assert!(Term::int(5).is_ground());
        assert!(!Term::var("x").is_ground());
    }

    #[test]
    fn substitution_apply() {
        let s = Substitution::from_bindings([
            (Var::new("x"), Term::sym("a")),
            (Var::new("y"), Term::var("z")),
        ]);
        assert_eq!(s.apply(Term::var("x")), Term::sym("a"));
        assert_eq!(s.apply(Term::var("y")), Term::var("z"));
        assert_eq!(s.apply(Term::var("w")), Term::var("w")); // unbound: identity
        assert_eq!(s.apply(Term::sym("c")), Term::sym("c")); // constants fixed
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn valuation_bind_and_conflict() {
        let mut v = Valuation::new();
        assert!(v.bind(Var::new("x"), Value::sym("a")));
        assert!(v.bind(Var::new("x"), Value::sym("a"))); // same value ok
        assert!(!v.bind(Var::new("x"), Value::sym("b"))); // conflict
        assert_eq!(v.get(Var::new("x")), Some(Value::sym("a")));
        v.unbind(Var::new("x"));
        assert!(v.is_empty());
    }

    #[test]
    fn valuation_apply() {
        let v = Valuation::from_bindings([(Var::new("x"), Value::int(3))]);
        assert_eq!(v.apply(Term::var("x")), Some(Value::int(3)));
        assert_eq!(v.apply(Term::var("y")), None);
        assert_eq!(v.apply(Term::sym("a")), Some(Value::sym("a")));
    }

    #[test]
    fn compatibility_with_substitution() {
        // θ = {x/b} — σ compatible iff σ(x) = b.
        let theta = Substitution::from_bindings([(Var::new("x"), Term::sym("b"))]);
        let good = Valuation::from_bindings([(Var::new("x"), Value::sym("b"))]);
        let bad = Valuation::from_bindings([(Var::new("x"), Value::sym("c"))]);
        let unbound = Valuation::new();
        assert!(good.compatible_with(&theta));
        assert!(!bad.compatible_with(&theta));
        assert!(!unbound.compatible_with(&theta));
    }

    #[test]
    fn compatibility_var_to_var() {
        // θ = {x/y}: σ compatible iff σ(x) = σ(y).
        let theta = Substitution::from_bindings([(Var::new("x"), Term::var("y"))]);
        let eq = Valuation::from_bindings([
            (Var::new("x"), Value::sym("a")),
            (Var::new("y"), Value::sym("a")),
        ]);
        let neq = Valuation::from_bindings([
            (Var::new("x"), Value::sym("a")),
            (Var::new("y"), Value::sym("b")),
        ]);
        assert!(eq.compatible_with(&theta));
        assert!(!neq.compatible_with(&theta));
    }

    #[test]
    fn empty_substitution_always_compatible() {
        let theta = Substitution::new();
        assert!(Valuation::new().compatible_with(&theta));
    }

    #[test]
    fn display_forms() {
        let s = Substitution::from_bindings([(Var::new("x"), Term::sym("b"))]);
        assert_eq!(s.to_string(), "{x/'b'}");
        let v = Valuation::from_bindings([(Var::new("x"), Value::sym("a"))]);
        assert_eq!(v.to_string(), "{x↦a}");
    }
}
