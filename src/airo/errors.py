"""Exception types shared across the toolkit.

Every failure a caller is expected to handle has a named class here; CLI
exit codes are derived from these (see cli.py).
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all airo errors."""


# --- bundle / taxonomy parsing ---

class MalformedSyntax(ToolkitError):
    """Input is not parseable at all (bad encoding, bad structure)."""


class SchemaViolation(ToolkitError):
    """Input parsed but violates the fixed schema; message names the field/record."""


class UnknownMember(ToolkitError):
    """Taxonomy references a note id that is not in the bundle."""


class Uncovered(ToolkitError):
    """A bundle note id is assigned to no cluster."""


class DoubleAssigned(ToolkitError):
    """A bundle note id is assigned to more than one cluster."""


# --- templates ---

class TemplateInvalid(ToolkitError):
    """Template violates a structural rule (placeholders, constraint placement)."""


# --- model invocation ---

class ConfigInvalid(ToolkitError):
    """Model configuration file is not JSON or violates ModelConfig's constraints."""


class Transport(ToolkitError):
    """Network/HTTP failure talking to the model endpoint."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class EmptyResponse(ToolkitError):
    """Model returned no usable text; carries the invocation for provenance."""

    def __init__(self, message: str, invocation=None):
        super().__init__(message)
        self.invocation = invocation


class StageOutputInvalid(ToolkitError):
    """Stage response could not be parsed; carries the invocation for provenance."""

    def __init__(self, message: str, invocation=None):
        super().__init__(message)
        self.invocation = invocation


class FixtureMissing(ToolkitError):
    """Offline stub was asked for a fixture that does not exist."""


# --- provenance ---

class InvalidLabel(ToolkitError):
    """Run label cannot be normalized into a valid run id."""


# --- draft auditing ---

class MissingHeader(ToolkitError):
    """Draft lacks the required header line."""


class MissingChecklist(ToolkitError):
    """Draft lacks the claim checklist section (or it is empty)."""


class MalformedChecklistEntry(ToolkitError):
    """A checklist line does not follow the entry grammar."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IndexOutOfRange(ToolkitError):
    """Audit row index outside the row list."""


class AlreadySupported(ToolkitError):
    """Attempted to attach a resolver note to a row that needs none."""


# --- inspection card / crate packaging ---

class MissingSection(ToolkitError):
    """An operator-authored card section is empty."""

    def __init__(self, section: str):
        super().__init__(f"card section left empty: {section}")
        self.section = section


class UnredactedLeak(ToolkitError):
    """Unredacted log content would end up in a packed crate."""


class DanglingEntity(ToolkitError):
    """Manifest (or pack payload) references a file that does not exist."""


class ManifestMissing(ToolkitError):
    """Archive has no ro-crate-metadata.json."""


class ManifestMalformed(ToolkitError):
    """ro-crate-metadata.json is unreadable or inconsistent with the archive."""


# --- verification ---

class CrateUnreadable(ToolkitError):
    """Archive cannot be opened at all; content problems are report findings."""


class SourceMismatch(ToolkitError):
    """Provided unredacted log does not belong to the crate's run."""


# --- run directory / CLI ---

class StageOrder(ToolkitError):
    """A pipeline stage was requested before its prerequisite completed."""


class PathExists(ToolkitError):
    """init target directory already exists and is not empty."""


class RunLocked(ToolkitError):
    """Another process holds the run directory lock."""
