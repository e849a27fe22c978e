"""Blockchain audit substrate: signed hash chain + reputation audit."""

from .audit import AuditFinding, AuditReport, audit_reputation, audit_reputations
from .blockchain import (
    Block,
    Blockchain,
    SigningIdentity,
    canonicalize,
    payload_digest,
)

__all__ = [
    "Block",
    "Blockchain",
    "SigningIdentity",
    "canonicalize",
    "payload_digest",
    "AuditFinding",
    "AuditReport",
    "audit_reputation",
    "audit_reputations",
]
