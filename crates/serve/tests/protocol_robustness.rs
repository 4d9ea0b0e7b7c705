//! Adversarial-input properties for the wire protocol: the parser is
//! total — arbitrary byte garbage, truncated frames, and oversized
//! frames never panic, and every rejection is a typed
//! [`ProtocolError`] whose rendered response stays one clean frame.

use fedval_serve::protocol::{parse_request, render_err, ProtocolError, MAX_FRAME};
use proptest::prelude::*;

/// A syntactically valid request line to truncate and mutate.
fn valid_frames() -> Vec<&'static [u8]> {
    vec![
        b"{\"id\":1,\"kind\":\"health\"}".as_slice(),
        b"{\"id\":2,\"kind\":\"shapley\"}".as_slice(),
        b"{\"id\":3,\"kind\":\"coalition-value\",\"coalition\":[0,1,2]}".as_slice(),
        b"{\"id\":4,\"kind\":\"what-if-join\",\"locations\":200,\"capacity\":2}".as_slice(),
        b"{\"id\":5,\"kind\":\"what-if-leave\",\"player\":1}".as_slice(),
        b"{\"kind\":\"stats\"}".as_slice(),
    ]
}

/// Every error a rejection may carry; used to pin the typed-error
/// contract (no stringly-typed escapes).
fn known_code(err: &ProtocolError) -> bool {
    matches!(
        err.code(),
        "FRAME_TOO_LARGE" | "INVALID_UTF8" | "MALFORMED" | "MISSING_FIELD" | "BAD_FIELD"
            | "UNKNOWN_KIND"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..300)) {
        // Totality is the property: any outcome but a panic is fine,
        // and errors must carry a known machine-readable code.
        if let Err(err) = parse_request(&bytes) {
            prop_assert!(known_code(&err), "unknown error code {:?}", err.code());
        }
    }

    #[test]
    fn truncated_frames_never_panic(which in 0usize..6, cut in 0usize..64) {
        let frames = valid_frames();
        let frame = frames[which % frames.len()];
        let cut = cut.min(frame.len());
        let truncated = &frame[..cut];
        match parse_request(truncated) {
            // Only the empty prefix of nothing could parse; any other
            // prefix of a valid frame is an error, never a panic.
            Ok(_) => prop_assert!(cut == frame.len()),
            Err(err) => prop_assert!(known_code(&err)),
        }
    }

    #[test]
    fn mutated_frames_never_panic(
        which in 0usize..6,
        pos in 0usize..64,
        byte in 0u8..=255,
    ) {
        let frames = valid_frames();
        let mut frame = frames[which % frames.len()].to_vec();
        let pos = pos % frame.len();
        frame[pos] = byte;
        if let Err(err) = parse_request(&frame) {
            prop_assert!(known_code(&err));
        }
    }

    #[test]
    fn error_responses_are_single_clean_frames(
        bytes in prop::collection::vec(0u8..=255, 0..200),
        id in 0u64..1000,
    ) {
        if let Err(err) = parse_request(&bytes) {
            let line = render_err(Some(id), err.code(), &err.to_string());
            // The response must survive newline framing no matter what
            // bytes provoked it.
            prop_assert!(!line.contains('\n'), "embedded newline in {line:?}");
            let prefix = format!("{{\"id\":{id},\"ok\":false,");
            prop_assert!(line.starts_with(&prefix), "bad prefix: {}", line);
        }
    }
}

/// Oversized input is rejected (or at minimum handled) without panic —
/// the framing layer caps reads at [`MAX_FRAME`], but the parser must
/// also stay total if handed more.
#[test]
fn oversized_input_never_panics_the_parser() {
    let huge = vec![b'x'; MAX_FRAME * 2];
    assert!(parse_request(&huge).is_err());

    // A structurally valid but oversized request: the parser enforces
    // the frame bound itself, independently of the framing layer.
    let mut frame = b"{\"id\":1,\"kind\":\"".to_vec();
    frame.extend(std::iter::repeat_n(b'a', MAX_FRAME * 2));
    frame.extend_from_slice(b"\"}");
    let err = parse_request(&frame).expect_err("oversized");
    assert_eq!(err.code(), "FRAME_TOO_LARGE");
}
