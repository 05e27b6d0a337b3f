"""One name rule for every input language: a name that one of them accepts,
every one accepts in each of its name positions, and a text that one of them
refuses as a name, every one refuses, naming the line when it reads a file."""

import pytest

from tempoweave.cli import EX_OK, EX_USAGE, load_properties, main
from tempoweave.engine import ScheduleEntry, check_schedule, parse_schedule
from tempoweave.formula import FormulaError, format_formula, parse_formula, print_formula
from tempoweave.model import (
    Binding,
    ScenarioError,
    load_scenario,
    parse_bindings,
    print_bindings,
    print_scenario,
    validate_bindings,
)

ACCEPTED = ["_x", "x2", "Mästr", "é", "to", "input"]  # the last two are scenario words
REFUSED = ["2x", "a-b", "p q"]


def scenario_text(n: str) -> str:
    """A scenario that uses `n` as every name it declares."""
    return (f"system {n}\ntaskkind {n} initial\ninputkind {n}\nmessagekind {n}\n"
            f"timestep 1\nagent {n} {{\n  task {n} : {n}\n"
            f"  transition {n} : {n} -> {n} on input {n} send {n} to {n}\n}}\n")


@pytest.mark.parametrize("name", ACCEPTED)
def test_accepted_everywhere(name, tmp_path, capsys):
    scenario = load_scenario(scenario_text(name))
    assert scenario.declared == dict.fromkeys(("task", "input", "message", "agent"), (name,))
    assert print_scenario(scenario) == scenario_text(name)

    bindings = parse_bindings(f"prop {name} = input_present({name}, {name})\n")
    assert bindings == {name: Binding("input_present", (name, name))}
    assert parse_bindings(print_bindings(bindings)) == bindings
    validate_bindings(bindings, scenario)

    schedule = parse_schedule(f"at 1: insert {name} into {name}\n")
    assert schedule == {1: ScheduleEntry("insert_input", kind=name, agent=name)}
    check_schedule(schedule, scenario)

    prop = parse_formula(f"@{name}: G ({name} -> X {name})")
    assert (prop.agent, format_formula(prop.body)) == (name, f"G ({name} -> X {name})")
    assert parse_formula(print_formula(prop)) == prop

    files = {"scenario": scenario_text(name), "props": print_formula(prop) + "\n",
             "bindings": print_bindings(bindings),
             "schedule": f"at 1: insert {name} into {name}\n"}
    argv = ["validate"]
    for option, text in files.items():
        (tmp_path / option).write_text(text, encoding="utf-8")
        argv += [f"--{option}", str(tmp_path / option)]
    assert main(argv) == EX_OK
    assert main(["eval", name, f"{{{name}}}@0"]) == EX_OK
    assert capsys.readouterr() == ("ok\nT\ntrue\n", "")


# (a file holding `{}` in place of a name on its second line, its parser)
FILES = {
    "scenario agent": ("system s\nagent {} {{\n}}\n", load_scenario),
    "scenario kind": ("system s\ntaskkind {} initial\n", load_scenario),
    "binding name": ("# names\nprop {} = agent_active(A)\n", parse_bindings),
    "binding argument": ("# names\nprop p = agent_active({})\n", parse_bindings),
    "schedule name": ("at 1: noop\nat 2: insert {} into A\n", parse_schedule),
    "formula atom": ("# names\n@A: G {}\n", load_properties),
    "property agent": ("# names\n@{}: G p\n", load_properties),
}


@pytest.mark.parametrize("name", REFUSED)
@pytest.mark.parametrize("where", FILES)
def test_refused_with_the_line(name, where):
    template, parse = FILES[where]
    with pytest.raises((ScenarioError, FormulaError)) as exc:
        parse(template.format(name))
    assert str(exc.value).startswith(("line 2: ", "2:"))


@pytest.mark.parametrize("name", REFUSED)
def test_refused_in_events(name, capsys):
    assert main(["eval", "p", f"{{{name}}}@0"]) == EX_USAGE
    assert capsys.readouterr() == (
        "", f"error: cannot parse event '{{{name}}}@0'; expected {{p,q}}@t\n")
