// Package repro is a from-scratch Go reproduction of "XRD: Scalable
// Messaging System with Cryptographic Privacy" (Kwon, Lu, Devadas;
// NSDI 2020).
//
// The library lives under internal/: internal/core is the public API
// of the system (network assembly and round execution), built on the
// substrates internal/{group,kdf,chacha20,poly1305,aead,nizk} for
// cryptography, internal/{chainsel,topology} for chain formation and
// selection, internal/{onion,mix,mailbox,client} for the protocol,
// internal/rpc for the TLS transport, and internal/{model,churn,
// trace} for the evaluation. See README.md for a tour, DESIGN.md for
// the system inventory, and EXPERIMENTS.md for paper-versus-measured
// results: its figure ledger names the one command that regenerates
// each figure of the paper's evaluation section (most are
// cmd/xrd-experiments). Runnable examples live under examples/ and
// command-line tools under cmd/.
package repro
