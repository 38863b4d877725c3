"""Help text of the command line.

`cli` imports this module only under -h/--help: a cold call compiles every
line of each module it loads, and most calls never print help.
"""

from __future__ import annotations


def help_text(verb: str | None, commands: dict[str, tuple], common: list[tuple[str, dict]]) -> str:
    """The help of the program (verb None) or of one verb, from the CLI's
    table of verbs and its flags shared by every verb."""
    if verb is None:
        usage = "<verb> --q QSPEC [verb flags] [--json]"
        about = "Exact Cantor-series arithmetic over arbitrary base sequences."
        title = "verbs (`cantorseries <verb> -h` lists the flags of one):"
        rows = [(name, help_line) for name, (_, help_line, _) in commands.items()]
    else:
        _, about, flags = commands[verb]
        shown = [
            (name if "action" in spec else f"{name} {spec.get('metavar', name[2:].upper())}", spec)
            for name, spec in common + flags
        ]
        usage = " ".join([verb, *(text if spec.get("required") else f"[{text}]" for text, spec in shown)])
        title = "flags:"
        rows = [(text, spec.get("help", "")) for text, spec in shown] + [("-h, --help", "show this help and exit")]
    width = max(len(left) for left, _ in rows)
    lines = [f"usage: cantorseries {usage}", "", about, "", title]
    return "\n".join(lines + [f"  {left:<{width}}  {right}".rstrip() for left, right in rows])
