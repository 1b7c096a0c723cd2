"""Shared issue record emitted by parsing, merging, and the validator layers."""

from __future__ import annotations

from dataclasses import asdict, dataclass

LAYER_SYNTACTIC = "syntactic"
LAYER_STRUCTURAL = "structural"
LAYER_COMPLIANCE = "compliance"

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass
class ValidationIssue:
    layer: str
    severity: str
    path: str
    code: str
    message: str

    def to_json(self) -> dict:
        return asdict(self)

    def line(self) -> str:
        """``CODE at path: message``, or ``CODE: message`` at the root."""
        where = f" at {self.path}" if self.path else ""
        return f"{self.code}{where}: {self.message}"


def issue_error(layer: str, path: str, code: str, message: str) -> ValidationIssue:
    return ValidationIssue(layer, SEVERITY_ERROR, path, code, message)


def issue_warning(layer: str, path: str, code: str, message: str) -> ValidationIssue:
    return ValidationIssue(layer, SEVERITY_WARNING, path, code, message)
