#!/usr/bin/env python3
"""Unit tests for rthv_lint's tokenizer and C++ declaration parser.

Covers the tricky declaration shapes the real tree uses -- nested classes,
[[gnu::target]] attribute clones, template members, in-class initializers,
#if-guarded members, out-of-line definitions -- so a parser regression
fails `ctest -L static` instead of silently dropping members from the
snapshot-coverage analysis.

Run directly (`python3 parser_test.py`) or via tests/run_static_analysis.sh.
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rthv_lint  # noqa: E402  (path set up above)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def parse(text: str) -> rthv_lint.FileModel:
    code = rthv_lint.strip_comments_and_strings(text).splitlines()
    return rthv_lint.DeclParser(rthv_lint.tokenize(code), "test.hpp").parse()


def only_class(model: rthv_lint.FileModel, name: str) -> rthv_lint.ClassModel:
    matches = [c for c in model.classes if c.name == name]
    if len(matches) != 1:
        raise AssertionError(f"expected exactly one class {name!r}, "
                             f"got {[c.name for c in model.classes]}")
    return matches[0]


def member_names(cls: rthv_lint.ClassModel) -> list[str]:
    return [m.name for m in cls.members]


class TokenizerTest(unittest.TestCase):
    def test_preprocessor_lines_become_pp_tokens(self):
        toks = rthv_lint.tokenize(["#include <vector>", "int x;"])
        self.assertEqual(toks[0].kind, "pp")
        self.assertEqual(toks[0].text, "include")
        # The <vector> angle brackets must not leak into the token stream.
        self.assertNotIn("<", [t.text for t in toks])

    def test_continuation_lines_are_swallowed(self):
        toks = rthv_lint.tokenize(["#define FOO(a) \\", "  ((a) + 1)", "int y;"])
        kinds = [(t.kind, t.text) for t in toks]
        self.assertEqual(kinds, [("pp", "define"), ("id", "int"), ("id", "y"),
                                 ("punct", ";")])

    def test_line_numbers(self):
        toks = rthv_lint.tokenize(["int a;", "", "int b;"])
        self.assertEqual([t.line for t in toks if t.kind == "id"], [1, 1, 3, 3])

    def test_multichar_operators(self):
        toks = rthv_lint.tokenize(["a <<= b >> c; x->y; p::q;"])
        texts = [t.text for t in toks if t.kind == "punct"]
        self.assertIn("<<=", texts)
        self.assertIn(">>", texts)
        self.assertIn("->", texts)
        self.assertIn("::", texts)


class MemberParsingTest(unittest.TestCase):
    def test_simple_members(self):
        m = parse("""
        class A {
         public:
          int x_;
          long y_ = 7;
         private:
          double z_{1.0};
        };
        """)
        self.assertEqual(member_names(only_class(m, "A")), ["x_", "y_", "z_"])

    def test_template_members_and_nested_angles(self):
        m = parse("""
        class A {
          std::vector<std::pair<int, long>> pairs_;
          std::array<std::uint64_t, 4> words_{};
          std::map<std::string, std::vector<int>> table_;
        };
        """)
        self.assertEqual(member_names(only_class(m, "A")),
                         ["pairs_", "words_", "table_"])

    def test_function_pointer_and_std_function_members(self):
        m = parse("""
        class A {
          void (*hook_)() = nullptr;
          std::function<void(int)> cb_;
        };
        """)
        cls = only_class(m, "A")
        self.assertIn("cb_", member_names(cls))
        self.assertIn("hook_", member_names(cls))

    def test_methods_are_not_members(self):
        m = parse("""
        class A {
         public:
          void poke();
          int peek() const { return v_; }
          [[nodiscard]] long sum(int a, int b) { return a + b; }
         private:
          int v_ = 0;
        };
        """)
        cls = only_class(m, "A")
        self.assertEqual(member_names(cls), ["v_"])
        self.assertIn("peek", cls.methods)
        self.assertIsNotNone(cls.methods["peek"].body)
        self.assertIn("sum", cls.methods)
        self.assertEqual(cls.methods["sum"].params, ["a", "b"])
        # Declaration without body
        self.assertIn("poke", cls.methods)
        self.assertIsNone(cls.methods["poke"].body)

    def test_reference_const_static_flags(self):
        m = parse("""
        class A {
          Sim& sim_;
          const char* label_;
          const int fixed_ = 3;
          static int shared_;
          int normal_;
        };
        """)
        cls = only_class(m, "A")
        by = {mm.name: mm for mm in cls.members}
        self.assertTrue(by["sim_"].is_reference)
        self.assertFalse(by["label_"].is_const)  # pointer-to-const is data
        self.assertTrue(by["fixed_"].is_const)
        self.assertNotIn("shared_", by)  # statics are not instance state
        self.assertFalse(by["normal_"].is_reference)

    def test_in_class_initializers_with_braces_and_calls(self):
        m = parse("""
        class A {
          std::size_t cap_ = IrqBatch::kCapacity;
          std::uint32_t id_ = UINT32_MAX;
          Duration d_{Duration::ns(5)};
        };
        """)
        self.assertEqual(member_names(only_class(m, "A")),
                         ["cap_", "id_", "d_"])

    def test_comma_declarators(self):
        m = parse("class A { int a_, b_ = 2, c_; };")
        self.assertEqual(member_names(only_class(m, "A")), ["a_", "b_", "c_"])


class StructureTest(unittest.TestCase):
    def test_nested_classes(self):
        m = parse("""
        namespace outer {
        class A {
         public:
          struct Inner {
            int deep_;
          };
          Inner inner_;
          int shallow_;
        };
        }  // namespace outer
        """)
        a = only_class(m, "A")
        inner = only_class(m, "Inner")
        self.assertEqual(member_names(a), ["inner_", "shallow_"])
        self.assertEqual(member_names(inner), ["deep_"])
        self.assertEqual(a.qual, "outer::A")
        self.assertEqual(inner.qual, "outer::A::Inner")

    def test_enums_do_not_leak_enumerators_as_members(self):
        m = parse("""
        class A {
          enum class Phase : std::uint8_t { kLearning, kRunning };
          enum Legacy { kOne, kTwo };
          Phase phase_ = Phase::kLearning;
        };
        """)
        self.assertEqual(member_names(only_class(m, "A")), ["phase_"])

    def test_base_classes(self):
        m = parse("""
        class D final : public Base, private mixin::Other {
          int x_;
        };
        """)
        cls = only_class(m, "D")
        self.assertIn("Base", cls.bases)
        self.assertIn("Other", cls.bases)

    def test_attribute_cloned_functions(self):
        # [[gnu::target("avx2")]] clones share a name; the parser must keep
        # parsing past the attribute and not invent members.
        m = parse("""
        class K {
         public:
          [[gnu::target("avx2")]] static int admit(const long* v, int n) {
            return n;
          }
          int plain(int n) { return n; }
         private:
          int state_;
        };
        """)
        cls = only_class(m, "K")
        self.assertEqual(member_names(cls), ["state_"])
        self.assertIn("admit", cls.methods)
        self.assertIn("plain", cls.methods)

    def test_if_guarded_members_are_conditional(self):
        m = parse("""
        class A {
          int always_;
        #if defined(EXTRA)
          int sometimes_;
        #endif
        };
        """)
        cls = only_class(m, "A")
        by = {mm.name: mm for mm in cls.members}
        self.assertFalse(by["always_"].conditional)
        self.assertTrue(by["sometimes_"].conditional)

    def test_template_member_functions(self):
        m = parse("""
        class A {
         public:
          template <typename F>
          void visit(F&& fn) { fn(v_); }
         private:
          int v_;
        };
        """)
        cls = only_class(m, "A")
        self.assertEqual(member_names(cls), ["v_"])
        self.assertIn("visit", cls.methods)


class OutOfLineTest(unittest.TestCase):
    def test_out_of_line_definition_is_recorded_and_linked(self):
        code = """
        class A {
         public:
          void snapshot_state(W& w) const;
         private:
          int v_;
        };
        void A::snapshot_state(W& w) const { w.u64(v_); }
        """
        m = parse(code)
        prog = rthv_lint.ProgramModel()
        prog.add(m)
        prog.link()
        cls = only_class(m, "A")
        self.assertIsNotNone(cls.methods["snapshot_state"].body)
        body_ids = [t.text for t in cls.methods["snapshot_state"].body
                    if t.kind == "id"]
        self.assertIn("v_", body_ids)

    def test_signatures_collect_param_names(self):
        m = parse("""
        void arm_timer(std::int64_t deadline_ns);
        void arm_timer(std::int64_t deadline_ns, bool periodic);
        """)
        self.assertEqual(m.signatures["arm_timer"],
                         [["deadline_ns"], ["deadline_ns", "periodic"]])

    def test_default_arguments_do_not_shift_param_names(self):
        m = parse("void f(int a = compute(3, 4), long tail_ns = 0);")
        self.assertEqual(m.signatures["f"], [["a", "tail_ns"]])


class RealTreeSnapshotPairTest(unittest.TestCase):
    """obs::TraceRing's snapshot_state/restore_state pair is under
    snapshot-coverage: the real header lints clean, and a reader that skips
    a counter is flagged. restore_state calls `buffer_.clear()`, which must
    not be inlined as TraceRing::clear() (that would count every counter
    as restored)."""

    RING = os.path.join("src", "obs", "trace_ring.hpp")

    def snapshot_findings(self, text: str) -> list[rthv_lint.Violation]:
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, self.RING)
            os.makedirs(os.path.dirname(path))
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            report = rthv_lint.run_lint(root, ["src"])
        return [v for v in report.violations + report.waived
                if v.rule.startswith("snapshot-")]

    def test_trace_ring_pair_is_checked(self):
        with open(os.path.join(REPO_ROOT, self.RING), encoding="utf-8") as f:
            text = f.read()
        self.assertEqual(self.snapshot_findings(text), [])
        needle = "    dropped_ = r.u64();\n"
        self.assertIn(needle, text)
        findings = self.snapshot_findings(
            text.replace(needle, "    (void)r.u64();\n"))
        self.assertEqual([v.rule for v in findings], ["snapshot-coverage"])
        self.assertIn("TraceRing::dropped_", findings[0].message)


class TransientWaiverScopeTest(unittest.TestCase):
    """A `lint: transient(...)` waiver covers its own line, or the member
    right below a comment-only waiver line -- never the next declaration
    after a trailing waiver."""

    HEADER = os.path.join("src", "core", "waiver_scope.hpp")

    def coverage_findings(self, members: str) -> list[str]:
        text = ("class Box {\n public:\n"
                "  void snapshot_state(W& w) const { w.u64(kept_); }\n"
                "  void restore_state(R& r) { kept_ = r.u64(); }\n"
                " private:\n  int kept_ = 0;\n" + members + "};\n")
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, self.HEADER)
            os.makedirs(os.path.dirname(path))
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            report = rthv_lint.run_lint(root, ["src"])
        return [v.message.split(" ")[0] for v in report.violations
                if v.rule == "snapshot-coverage"]

    def test_trailing_waiver_does_not_cover_next_member(self):
        self.assertEqual(self.coverage_findings(
            "  int wiring_ = 0;  // lint: transient(wiring)\n"
            "  int state_ = 0;\n"), ["Box::state_"])

    def test_comment_line_waiver_covers_member_below(self):
        self.assertEqual(self.coverage_findings(
            "  // lint: transient(wiring)\n"
            "  int wiring_ = 0;\n"), [])


class StripTest(unittest.TestCase):
    def test_raw_strings_and_comments(self):
        text = 'auto s = R"x(struct Fake { int y_; })x"; // class C { int z_; }\n'
        stripped = rthv_lint.strip_comments_and_strings(text)
        self.assertNotIn("Fake", stripped)
        self.assertNotIn("z_", stripped)

    def test_block_comment_preserves_lines(self):
        text = "int a;\n/* class B {\n int b_;\n} */\nint c;\n"
        stripped = rthv_lint.strip_comments_and_strings(text)
        self.assertEqual(len(stripped.splitlines()), len(text.splitlines()))
        self.assertNotIn("b_", stripped)


class UnitHelpersTest(unittest.TestCase):
    def test_unit_of(self):
        self.assertEqual(rthv_lint.unit_of("deadline_ns"), "ns")
        self.assertEqual(rthv_lint.unit_of("budget_ticks"), "ticks")
        self.assertEqual(rthv_lint.unit_of("cost_cycles"), "cycles")
        self.assertEqual(rthv_lint.unit_of("ns"), "ns")
        self.assertIsNone(rthv_lint.unit_of("nanoseconds"))
        self.assertIsNone(rthv_lint.unit_of("bins"))  # no _ns suffix match
        self.assertIsNone(rthv_lint.unit_of("count"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
