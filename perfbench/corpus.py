"""Seeded corpus generator and independent oracle for the semlint benchmark.

The generator writes per-team annual reports shaped like the test fixtures
(`acacia_xml`/`orpailleur_xml`) and plants known defects in them.  The
oracle derives the expected `(file, line, rule)` messages from what was
planted, line by line, without importing semlint, so a wrong report can
never agree with itself.  Rule indices refer to `raweb.rules` in this
directory.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace

RULE_MEMBER = 4      # personne1: composition member missing from the staff
RULE_YEAR = 7        # sameyear: year citation with another year
RULE_COOP = 9        # pubbyotherproject: title also claimed by another team
RULE_URL = 10        # testurl: URL that does not answer 2xx

REPORT_YEAR = 2002

FIRST = ["Anne", "Paul", "Jean", "Lea", "Marc", "Sophie", "Luc", "Claire",
         "Hugo", "Ines", "Yves", "Nina", "Remi", "Alice", "Theo", "Chloe",
         "Louis", "Emma", "Noel", "Julie"]
LAST = ["Martin", "Durand", "Petit", "Moreau", "Bernard", "Dubois",
        "Thomas", "Robert", "Richard", "Simon", "Laurent", "Michel",
        "Garcia", "David", "Bertrand", "Roux", "Vincent", "Fournier",
        "Morel", "Girard", "Andre", "Lefevre", "Mercier", "Dupont",
        "Lambert", "Bonnet", "Francois", "Martinez", "Legrand", "Garnier"]
WORDS = ["adaptive", "semantic", "distributed", "formal", "robust",
         "incremental", "symbolic", "parallel", "logical", "structured",
         "knowledge", "ontology", "mining", "inference", "constraint",
         "document", "retrieval", "reasoning", "grammar", "network"]

# How the loopback stub answers a URL is encoded in its path.
URL_OK, URL_404, URL_405, URL_REFUSED = "ok", "404", "405", "refused"


@dataclass(frozen=True)
class Citation:
    title: str
    year: int


@dataclass(frozen=True)
class Team:
    name: str
    staff: tuple[tuple[str, str], ...]
    members: tuple[tuple[str, str], ...]
    citations: tuple[Citation, ...]
    urls: tuple[str, ...]
    sections: int
    pars: int
    bulky: bool
    filler_seed: int


@dataclass
class Rendered:
    text: str
    # (line, rule, detail) for every message that depends on this file only
    local: list[tuple[int, int, str]] = field(default_factory=list)
    # (line, title) of every year citation, for the cross-file coop check
    titles: list[tuple[int, str]] = field(default_factory=list)


def _filler(lines: list[str], team: Team) -> None:
    rng = random.Random(team.filler_seed)
    for s in range(1, team.sections + 1):
        lines.append(f'  <section id="{team.name}-s{s}">')
        lines.append(f"    <title>Research axis {s}</title>")
        for p in range(team.pars):
            if team.bulky:
                w = rng.sample(WORDS, 6)
                lines.append(
                    f"    <par>Work on {w[0]} {w[1]} methods by team "
                    f"{team.name} continued with <em>{w[2]}</em> results, "
                    f"<b>{w[3]} tools</b> and a {w[4]} study"
                    f'<ref target="{team.name}-s{s}-p{p}"/> of {w[5]} '
                    f"systems, see <em>module {s}.{p}</em> for details."
                    f"</par>")
            else:
                lines.append(f"    <par>Work on topic {s} of team {team.name} "
                             f"continued through the year, with seminars, "
                             f"software releases and collaborations.</par>")
        lines.append("  </section>")


def render(team: Team, url_kinds: dict[str, str]) -> Rendered:
    """Write one report and the messages it must produce on its own."""
    out = Rendered("")
    lines: list[str] = []

    def add(line: str) -> int:
        lines.append(line)
        return len(lines)

    add(f'<raweb year="{REPORT_YEAR}">')
    add("  <accueil>")
    add(f'    <logo src="{team.name}.png"/>')
    add(f"    <head>Team {team.name}</head>")
    add(f"    <projet>{team.name}<theme>research</theme></projet>")
    add("    <moreinfo>Created 1995</moreinfo>")
    add("  </accueil>")
    add("  <catperso>")
    for first, last in team.staff:
        add(f'    <pers prenom="{first}" nom="{last}">'
            f"<role>Researcher</role></pers>")
    add("  </catperso>")
    _filler(lines, team)
    add("  <composition>")
    staff = set(team.staff)
    for first, last in team.members:
        line = add(f'    <pers prenom="{first}" nom="{last}">'
                   f"<role>Member</role></pers>")
        if (first, last) not in staff:
            out.local.append((line, RULE_MEMBER, f"{first} {last}"))
    add("  </composition>")
    add("  <biblio>")
    for cit in team.citations:
        add('    <citation from="year">')
        line = add(f"      <btitle>{cit.title}<note/></btitle>")
        out.titles.append((line, cit.title))
        line = add(f"      <byear>{cit.year}<note/></byear>")
        if cit.year != REPORT_YEAR:
            out.local.append((line, RULE_YEAR, cit.title))
        add("    </citation>")
    for i, url in enumerate(team.urls):
        line = add(f'    <xref url="{url}">reference {i}</xref>')
        kind = url_kinds.get(url, URL_OK)
        if kind == URL_404:
            out.local.append((line, RULE_URL, "ERROR 404"))
        elif kind == URL_REFUSED:
            out.local.append((line, RULE_URL, "No answer"))
    add("  </biblio>")
    add("</raweb>")
    out.text = "\n".join(lines) + "\n"
    return out


@dataclass
class Corpus:
    teams: list[Team]
    url_kinds: dict[str, str]
    offline: bool

    def file_name(self, i: int) -> str:
        return f"{self.teams[i].name}.xml"

    def with_edit(self, i: int, rep: int) -> "Corpus":
        """The corpus after one unknown member is added to report `i`."""
        team = self.teams[i]
        guest = ("Visitor", f"Guest{rep}")
        teams = list(self.teams)
        teams[i] = replace(team, members=team.members + (guest,))
        return Corpus(teams, self.url_kinds, self.offline)

    def texts(self) -> list[str]:
        return [render(t, self.url_kinds).text for t in self.teams]

    def expected(self, paths: list[str]) -> Counter:
        """Multiset of (file, line, rule, detail) the report must hold."""
        rendered = [render(t, self.url_kinds) for t in self.teams]
        claims: dict[str, set[str]] = {}
        for team, r in zip(self.teams, rendered):
            for _, title in r.titles:
                claims.setdefault(title, set()).add(team.name)
        want: Counter = Counter()
        for path, team, r in zip(paths, self.teams, rendered):
            for line, rule, detail in r.local:
                if rule == RULE_URL and self.offline:
                    continue
                want[(path, line, rule, detail)] += 1
            for line, title in r.titles:
                for other in sorted(claims[title] - {team.name}):
                    want[(path, line, RULE_COOP, other)] += 1
        return want


def check_report(report: str, want: Counter) -> list[str]:
    """Compare a `--format machine` report with the oracle; [] when equal."""
    problems: list[str] = []
    got: Counter = Counter()
    texts: dict[tuple, list[str]] = {}
    lines = report.splitlines()
    if not lines:
        return ["empty report"]
    try:
        rows = [json.loads(line) for line in lines]
    except ValueError as exc:
        return [f"report line is not JSON: {exc}"]
    *body, summary = rows
    for row in body:
        if "diagnostic" in row:
            problems.append(f"unexpected diagnostic: {row['diagnostic']}")
            continue
        key = (row["file"], row["line"], row["rule"])
        got[key] += 1
        texts.setdefault(key, []).append(row["text"])
    if summary != {"messages": len(body)}:
        problems.append(f"summary {summary} does not count {len(body)} "
                        f"message lines")
    want_keys: Counter = Counter()
    details: dict[tuple, list[str]] = {}
    for (path, line, rule, detail), n in want.items():
        want_keys[(path, line, rule)] += n
        details.setdefault((path, line, rule), []).extend([detail] * n)
    for key in sorted(set(got) | set(want_keys)):
        if got[key] != want_keys[key]:
            problems.append(f"{key}: {got[key]} messages, oracle says "
                            f"{want_keys[key]}")
        elif not _details_match(details.get(key, []), texts.get(key, [])):
            problems.append(f"{key}: texts {texts[key]} do not name "
                            f"{details[key]}")
    return problems


def _details_match(details: list[str], texts: list[str]) -> bool:
    remaining = list(texts)
    for detail in details:
        for i, text in enumerate(remaining):
            if detail in text:
                del remaining[i]
                break
        else:
            return False
    return True


# -- generation ---------------------------------------------------------------

def _names(rng: random.Random, n: int) -> list[tuple[str, str]]:
    pool = [(f, l) for f in FIRST for l in LAST]
    return rng.sample(pool, n)


def generate(params: dict, seed: int, base_url: str = "",
             refused_url: str = "") -> Corpus:
    """Build a corpus from workload parameters; same seed, same corpus.

    Counts (files, entries, defects, distinct URLs) are fixed by `params`;
    the seed picks names, titles, years, URL kinds and their positions.
    """
    rng = random.Random(seed)
    n = params["files"]
    n_cit = params["citations"]
    k_shared = round(n_cit * params["shared_share"] / 2)
    if k_shared >= n:
        raise ValueError("shared_share too large for the number of files")
    names = [f"t{i:02d}{rng.choice(WORDS)[:5]}" for i in range(n)]

    # Team i shares one title with each of teams i+1 .. i+k (mod n), so every
    # report holds exactly 2k shared titles and each shared title has
    # exactly one other claimant.
    shared: list[list[str]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(k_shared):
            title = (f"Joint {rng.choice(WORDS)} {rng.choice(WORDS)} "
                     f"study {i}-{j}")
            shared[i].append(title)
            shared[(i + 1 + j) % n].append(title)

    url_kinds: dict[str, str] = {}
    ref_lists: list[list[str]] = [[] for _ in range(n)]
    if params.get("xrefs"):
        ref_lists = _deal_urls(rng, params, n, base_url, refused_url,
                               url_kinds)

    teams = []
    for i, name in enumerate(names):
        staff = _names(rng, params["staff"])
        n_mem = params["members"]
        n_unknown = round(n_mem * params["unknown_share"])
        known = rng.sample(staff, n_mem - n_unknown)
        staff_set = set(staff)
        outsiders = [p for p in _names(rng, n_unknown + len(staff))
                     if p not in staff_set][:n_unknown]
        members = known + outsiders
        rng.shuffle(members)

        titles = [f"{rng.choice(WORDS).capitalize()} {rng.choice(WORDS)} "
                  f"report {name}-{c}"
                  for c in range(n_cit - len(shared[i]))] + shared[i]
        rng.shuffle(titles)
        n_wrong = round(n_cit * params["wrong_year_share"])
        wrong = set(rng.sample(range(n_cit), n_wrong))
        citations = tuple(
            Citation(t, rng.choice((1999, 2000, 2001)) if c in wrong
                     else REPORT_YEAR)
            for c, t in enumerate(titles))
        urls = tuple(ref_lists[i]) if params.get("xrefs") else tuple(
            f"http://127.0.0.1:9/doc/{name}/{u}"
            for u in range(params.get("offline_xrefs", 0)))
        teams.append(Team(name, tuple(staff), tuple(members), citations,
                          urls, params["sections"], params["pars"],
                          params["bulky"], rng.randrange(1 << 30)))
    return Corpus(teams, url_kinds, offline=not params.get("xrefs"))


def _deal_urls(rng, params, n, base_url, refused_url, url_kinds):
    distinct = params["urls_distinct"]
    kinds = ([URL_404] * round(distinct * params["share_404"])
             + [URL_405] * round(distinct * params["share_405"])
             + [URL_REFUSED] * round(distinct * params["share_refused"]))
    kinds += [URL_OK] * (distinct - len(kinds))
    rng.shuffle(kinds)
    pool = []
    for q, kind in enumerate(kinds):
        host = refused_url if kind == URL_REFUSED else base_url
        url = f"{host}/r/{kind}/{rng.choice(WORDS)}-{q}"
        url_kinds[url] = kind
        pool.append(url)
    total = n * params["xrefs"]
    if total < distinct:
        raise ValueError("fewer references than distinct URLs")
    refs = pool + [rng.choice(pool) for _ in range(total - distinct)]
    rng.shuffle(refs)
    per = params["xrefs"]
    return [refs[i * per:(i + 1) * per] for i in range(n)]
