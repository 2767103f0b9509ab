//! Fixed-seed mutation regression tests of the two text parsers that take
//! input from outside the process: the wire/REPL command parser
//! (`serve::parse_command`) and the text-table loader
//! (`textio::parse_database`). Each case damages valid input with a few
//! random byte flips, inserts, deletes or truncations, decodes it lossily
//! as UTF-8, and must parse to `Ok` or a typed error — never a panic.

use full_disjunction::core::serve::parse_command;
use full_disjunction::relational::textio::{format_database, parse_database};
use full_disjunction::relational::{tourist_database, Database};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 2_000;

/// One random byte-level mutation of `bytes`: flip, insert, delete or
/// truncate.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    let pos = rng.gen_range(0..=bytes.len());
    match rng.gen_range(0..4u8) {
        0 if pos < bytes.len() => bytes[pos] ^= rng.gen_range(1..=255u8),
        1 => bytes.insert(pos, rng.gen_range(0..=255u8)),
        2 if pos < bytes.len() => {
            bytes.remove(pos);
        }
        _ => bytes.truncate(pos),
    }
}

/// `source` with one to three random mutations, lossily decoded.
fn mutated(source: &str, rng: &mut StdRng) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        mutate(&mut bytes, rng);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every form of the command grammar, including quoted insert cells.
const VALID_COMMANDS: &[&str] = &[
    "begin",
    "commit",
    "abort",
    "show",
    "top",
    "stats",
    "metrics",
    "subscribe",
    "unsubscribe",
    "quit",
    "exit",
    "shutdown",
    "delete t3",
    "delete 7",
    "insert Climates | Chile | arid",
    "insert Accommodations | Canada | London | Fairmont | 5",
    "insert Sites | \"a | b\" | ⊥ | \"say \\\"hi\\\"\"",
    "insert Sites | 1.5 | true | null",
];

#[test]
fn byte_mutations_of_commands_never_panic_the_parser() {
    for line in VALID_COMMANDS {
        assert!(parse_command(line).is_ok(), "{line:?} must parse");
    }
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for case in 0..CASES {
        let line = mutated(VALID_COMMANDS[case % VALID_COMMANDS.len()], &mut rng);
        let outcome = std::panic::catch_unwind(|| parse_command(&line));
        match outcome {
            Ok(Ok(_)) => accepted += 1,
            Ok(Err(e)) => {
                assert!(!e.to_string().is_empty(), "case {case}: empty error");
                rejected += 1;
            }
            Err(_) => panic!("case {case}: parse_command panicked on {line:?}"),
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "accepted {accepted}, rejected {rejected}"
    );
}

/// Every live tuple's values, relation by relation, in id order.
fn contents(db: &Database) -> Vec<Vec<String>> {
    db.all_tuples()
        .map(|t| {
            db.tuple_values(t)
                .iter()
                .map(|v| format!("{v:?}"))
                .collect()
        })
        .collect()
}

#[test]
fn byte_mutations_of_text_tables_never_panic_the_loader() {
    let source = format_database(&tourist_database());
    assert!(parse_database(&source).is_ok());
    let mut rng = StdRng::seed_from_u64(0x7AB1E);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for case in 0..CASES {
        let text = mutated(&source, &mut rng);
        let outcome = std::panic::catch_unwind(|| parse_database(&text));
        match outcome {
            Ok(Ok(db)) => {
                // An accepted table survives format → parse unchanged.
                let formatted = format_database(&db);
                let back = parse_database(&formatted)
                    .unwrap_or_else(|e| panic!("case {case}: reparse failed: {e}"));
                assert_eq!(format_database(&back), formatted, "case {case}");
                assert_eq!(contents(&back), contents(&db), "case {case}");
                accepted += 1;
            }
            Ok(Err(e)) => {
                assert!(!e.to_string().is_empty(), "case {case}: empty error");
                rejected += 1;
            }
            Err(_) => panic!("case {case}: parse_database panicked on {text:?}"),
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "accepted {accepted}, rejected {rejected}"
    );
}
