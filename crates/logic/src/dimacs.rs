//! DIMACS CNF serialization, for interoperability with external SAT tools
//! (e.g. feeding a dependency model to sharpSAT, as the paper did).

use crate::{Clause, Cnf, Lit, Var};
use std::fmt::Write as _;

/// An error produced while parsing DIMACS text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line where the problem was found.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dimacs parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseDimacsError {}

/// Renders `cnf` in DIMACS CNF format. Variables are 1-based as the format
/// requires.
///
/// # Examples
///
/// ```
/// use lbr_logic::{dimacs, Clause, Cnf, Var};
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause(Clause::edge(Var::new(0), Var::new(1)));
/// let text = dimacs::to_dimacs(&cnf);
/// assert!(text.starts_with("p cnf 2 1"));
/// ```
pub fn to_dimacs(cnf: &Cnf) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p cnf {} {}", cnf.num_vars(), cnf.len());
    for c in cnf.clauses() {
        for l in c.lits() {
            let n = l.var().index() as i64 + 1;
            let _ = write!(out, "{} ", if l.is_positive() { n } else { -n });
        }
        out.push_str("0\n");
    }
    out
}

/// Parses DIMACS CNF text.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on malformed headers, non-integer tokens,
/// variable indices exceeding the declared count, or clauses missing their
/// `0` terminator.
pub fn from_dimacs(text: &str) -> Result<Cnf, ParseDimacsError> {
    let mut num_vars: Option<usize> = None;
    let mut cnf = Cnf::new(0);
    let mut current: Vec<Lit> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p ") {
            let mut parts = rest.split_whitespace();
            if parts.next() != Some("cnf") {
                return Err(ParseDimacsError {
                    line: lineno,
                    message: "expected 'p cnf <vars> <clauses>'".into(),
                });
            }
            let vars: usize =
                parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ParseDimacsError {
                        line: lineno,
                        message: "bad variable count".into(),
                    })?;
            num_vars = Some(vars);
            cnf.ensure_vars(vars);
            continue;
        }
        let declared = num_vars.ok_or_else(|| ParseDimacsError {
            line: lineno,
            message: "clause before 'p cnf' header".into(),
        })?;
        for tok in line.split_whitespace() {
            let n: i64 = tok.parse().map_err(|_| ParseDimacsError {
                line: lineno,
                message: format!("bad literal {tok:?}"),
            })?;
            if n == 0 {
                cnf.add_clause(Clause::new(std::mem::take(&mut current)));
            } else {
                let idx = n.unsigned_abs() as usize;
                if idx > declared {
                    return Err(ParseDimacsError {
                        line: lineno,
                        message: format!("literal {n} exceeds declared {declared} variables"),
                    });
                }
                let var = Var::new((idx - 1) as u32);
                current.push(Lit::with_polarity(var, n > 0));
            }
        }
    }
    if !current.is_empty() {
        return Err(ParseDimacsError {
            line: text.lines().count(),
            message: "unterminated clause (missing trailing 0)".into(),
        });
    }
    Ok(cnf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn roundtrip() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::implication([v(1), v(2)], [v(3)]));
        cnf.add_clause(Clause::unit(Lit::pos(v(0))));
        let text = to_dimacs(&cnf);
        let back = from_dimacs(&text).expect("parse");
        assert_eq!(back.num_vars(), 4);
        assert_eq!(back.clauses(), cnf.clauses());
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "c a comment\n\np cnf 2 1\nc another\n1 -2 0\n";
        let cnf = from_dimacs(text).expect("parse");
        assert_eq!(cnf.len(), 1);
        assert_eq!(
            cnf.clauses()[0],
            Clause::new(vec![Lit::pos(v(0)), Lit::neg(v(1))])
        );
    }

    #[test]
    fn rejects_missing_header() {
        assert!(from_dimacs("1 2 0\n").is_err());
    }

    #[test]
    fn rejects_unterminated_clause() {
        assert!(from_dimacs("p cnf 2 1\n1 2\n").is_err());
    }

    #[test]
    fn rejects_out_of_range_literal() {
        let err = from_dimacs("p cnf 1 1\n2 0\n").unwrap_err();
        assert!(err.message.contains("exceeds"));
    }

    #[test]
    fn clause_spanning_lines() {
        let cnf = from_dimacs("p cnf 3 1\n1 2\n3 0\n").expect("parse");
        assert_eq!(cnf.len(), 1);
        assert_eq!(cnf.clauses()[0].len(), 3);
    }
}
