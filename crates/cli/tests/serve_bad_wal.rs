//! WALs holding checksum-valid records that no broker could have written.
//!
//! The records frame and checksum correctly, so the tolerant scan keeps
//! them; the fold must reject them. `Durability::open` returns a typed
//! error, and `mbp-market serve --wal` refuses to boot rather than count
//! the sale or list the curve.

use mbp_core::market::MarketError;
use mbp_ml::ModelKind;
use mbp_wal::log::segment_path;
use mbp_wal::{encode_log, Durability, WalConfig, WalError, WalEvent};
use std::path::{Path, PathBuf};
use std::process::Command;

const KIND: ModelKind = ModelKind::LinearRegression;

/// A fresh WAL directory holding `events`, keyed by test name and process
/// id so the tests of this binary never share one.
fn wal_dir(test: &str, events: &[WalEvent]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbp-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(segment_path(&dir, 1), encode_log(events).bytes).unwrap();
    dir
}

/// `mbp-market serve --wal dir` exits 1 with `needle` on stderr and never
/// binds.
fn assert_serve_refuses(dir: &Path, needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mbp-market"))
        .args(["serve", "--port", "0", "--wal"])
        .arg(dir)
        .output()
        .expect("run mbp-market serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("listening"),
        "the daemon must not bind"
    );
}

#[test]
fn a_sale_with_a_nan_price_fails_recovery_and_serve_refuses_to_boot() {
    let dir = wal_dir(
        "bad-sale",
        &[
            WalEvent::Support {
                kind: KIND,
                ridge: 1e-6,
            },
            WalEvent::Sale {
                kind: KIND,
                ncp: 0.5,
                price: 2.0,
            },
            WalEvent::Sale {
                kind: KIND,
                ncp: 0.5,
                price: f64::NAN,
            },
        ],
    );

    match Durability::open(&dir, WalConfig::default()) {
        Err(WalError::BadSale {
            record: 2,
            ncp,
            price,
        }) => {
            assert_eq!(ncp, 0.5);
            assert!(price.is_nan());
        }
        Err(e) => panic!("unexpected error: {e}"),
        Ok(_) => panic!("recovery accepted a NaN-priced sale"),
    }
    assert_serve_refuses(&dir, "recovered sale record 2 is invalid");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_publish_of_an_arbitrageable_curve_fails_recovery_and_serve_refuses_to_boot() {
    // As sold, p̄(1) + p̄(2) = 1 + 2 < p̄(3) = 3.5.
    let dir = wal_dir(
        "bad-publish",
        &[
            WalEvent::Support {
                kind: KIND,
                ridge: 1e-6,
            },
            WalEvent::Publish {
                kind: KIND,
                grid: vec![2.0, 3.0],
                prices: vec![2.0, 3.5],
            },
        ],
    );

    match Durability::open(&dir, WalConfig::default()) {
        Err(WalError::Market(MarketError::NotArbitrageFree(w))) => {
            assert_eq!(w.margin(), 0.5, "{w}");
        }
        Err(e) => panic!("unexpected error: {e}"),
        Ok(_) => panic!("recovery accepted an arbitrageable curve"),
    }
    assert_serve_refuses(
        &dir,
        "recovered state rejected: pricing is not arbitrage-free",
    );
    std::fs::remove_dir_all(&dir).ok();
}
