"""Audit trail: catching a server that manipulates reputations (S4.5).

FIFL stores every round's assessment results, signed by the executing
server, in a blockchain. This example shows both tamper classes the audit
protocol covers:

1. a server rewriting a committed block *without* re-signing — caught by
   chain verification (hash/signature mismatch);
2. a malicious server committing a *legitimately signed but wrong*
   reputation — invisible to chain verification, caught by the publisher
   replaying the detection outcomes (audit_reputation) and traced to the
   signer.

Run:  python examples/audit_trail.py
"""

from repro.core import DecayReputation
from repro.ledger import Blockchain, SigningIdentity, audit_reputation

GAMMA = 0.2
WORKER = 3


def build_honest_chain() -> Blockchain:
    """Ten rounds of detection outcomes for worker 3, honestly recorded."""
    chain = Blockchain()
    chain.register(SigningIdentity("server-A", b"key-of-server-A"))
    chain.register(SigningIdentity("server-B", b"key-of-server-B"))
    rep = DecayReputation(gamma=GAMMA)
    outcomes = [True, True, False, True, True, True, False, True, True, True]
    for t, outcome in enumerate(outcomes):
        reps = {WORKER: rep.update(WORKER, outcome)}
        signer = "server-A" if t % 2 == 0 else "server-B"
        chain.append(
            {"round": t, "accepted": {WORKER: outcome}, "reputations": reps},
            signer=signer,
        )
    return chain


def main():
    # -- clean chain audits clean ------------------------------------------
    chain = build_honest_chain()
    report = audit_reputation(chain, WORKER, gamma=GAMMA)
    print(f"honest ledger: {len(chain)} blocks, intact={chain.is_intact()}, "
          f"audit clean={report.clean}")

    # -- tamper class 1: rewrite without re-signing --------------------------
    payload = dict(chain[4].payload)
    payload["reputations"] = {str(WORKER): 0.99}
    chain.tamper(4, payload)
    bad_blocks = chain.verify()
    print(f"\nafter rewriting block 4 in place: intact={chain.is_intact()}, "
          f"invalid blocks={bad_blocks}")
    assert bad_blocks == [4]

    # -- tamper class 2: legitimately signed lies ----------------------------
    evil = Blockchain()
    evil.register(SigningIdentity("server-A", b"key-of-server-A"))
    evil.register(SigningIdentity("evil-server", b"key-of-evil-node"))
    rep = DecayReputation(gamma=GAMMA)
    for t, outcome in enumerate([False, False, False, False]):
        reps = {WORKER: rep.update(WORKER, outcome)}
        if t == 2:
            # the evil server inflates the attacker's reputation, signing
            # the forged record with its own valid key
            reps = {WORKER: 0.95}
            signer = "evil-server"
        else:
            signer = "server-A"
        evil.append(
            {"round": t, "accepted": {WORKER: outcome}, "reputations": reps},
            signer=signer,
        )
    print(f"\nforged-but-signed ledger: intact={evil.is_intact()} "
          "(signatures cannot catch this)")
    report = audit_reputation(evil, WORKER, gamma=GAMMA)
    print(f"replay audit: clean={report.clean}, findings:")
    for f in report.findings:
        print(
            f"  round {f.round_idx}: recorded R={f.recorded:.3f} but replay "
            f"gives {f.recomputed:.3f} -> signed by {f.signer!r}"
        )
    assert report.implicated_signers() == {"evil-server"}
    print("\nOK: the manipulating server is identified by its signature and "
          "can be expelled from the cluster.")


if __name__ == "__main__":
    main()
