"""Exception types shared across the toolkit, the file reader that raises one, and a UTF-8 test.

Every failure a caller is expected to handle has a named class here; CLI
exit codes are derived from these (see cli.py).
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all airo errors."""


# --- bundle / taxonomy parsing ---

class MalformedSyntax(ToolkitError):
    """Input is not parseable at all (bad encoding, bad structure)."""


def read_utf8(path) -> str:
    """The file's text; bytes that are not UTF-8 are a MalformedSyntax naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise MalformedSyntax(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from err


def utf8_text(text: str) -> bool:
    """Whether UTF-8 can carry the text: an OS string decoded with surrogateescape may not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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


class CallRefused(ToolkitError):
    """A string the call's request or log record would hold cannot be carried; none was made."""


class EmptyResponse(ToolkitError):
    """Model returned no usable text; the call is logged all the same."""


class StageOutputInvalid(ToolkitError):
    """Stage response could not be parsed; the call is logged all the same."""


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
    """A card section is empty; the message names it."""


class UnredactedLeak(ToolkitError):
    """Unredacted log content would end up in a packed crate."""


class DanglingEntity(ToolkitError):
    """The run directory lacks a file pack would write into the crate."""


# --- verification ---

class CrateUnreadable(ToolkitError):
    """Archive cannot be opened at all; content problems are report findings."""


class SourceMismatch(ToolkitError):
    """A log of another run than the one read or packed, or a draft that no call in it wrote."""


# --- run directory / CLI ---

class StageOrder(ToolkitError):
    """A stage ran before its prerequisite completed, or before the last logged call started."""


class PathExists(ToolkitError):
    """init target directory already exists and is not empty."""


class RunLocked(ToolkitError):
    """The run's lock is held: by another process, or another open file of this one."""
