"""Each checker accepts a known-right output and rejects a known-wrong one.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import unittest

import checkers


class ArithmeticTest(unittest.TestCase):
    envs = checkers.sign_environments(7)

    def test_environments_obey_sign_assumptions(self):
        for env in self.envs:
            self.assertGreater(env["x"], 0)
            self.assertLess(env["y"], 0)
            self.assertNotEqual(env["a"], 0)

    def test_headline_result(self):
        src = "(/ (* a (* 2 3)) 6)"
        self.assertIsNone(checkers.check_exact(src, "a", self.envs, "a"))
        # right value, but not the atom the generator put in
        self.assertIsNotNone(checkers.check_exact(src, "(* a 1)", self.envs, "a"))
        self.assertIsNotNone(checkers.check_exact(src, "b", self.envs, "a"))
        # an unguarded cancellation changes the value
        wrong = checkers.check_exact("(/ (* a 4) 6)", "(* a 2)", self.envs)
        self.assertIsNotNone(wrong)

    def test_near_zero_result(self):
        src = "(+ (* 3 a) (* 1e-20 (cos b)))"
        self.assertIsNone(checkers.check_near_zero(src, "(* 3 a)", self.envs))
        self.assertIsNotNone(checkers.check_near_zero(src, "a", self.envs))
        # a product above the near-zero bound must stay
        big = "(+ a (* 0.5 (sin b)))"
        self.assertIsNotNone(checkers.check_near_zero(big, "a", self.envs))

    def test_larger_output_is_rejected(self):
        self.assertIsNotNone(checkers.check_exact("a", "(* a 1)", self.envs))


class ACTest(unittest.TestCase):
    def test_verdicts(self):
        left, right = "(+ a (+ b a))", "(+ (+ a a) b)"
        self.assertIsNone(checkers.check_ac_verdict(left, right, True))
        self.assertIsNotNone(checkers.check_ac_verdict(left, right, False))
        other = "(+ (+ a b) b)"
        self.assertIsNone(checkers.check_ac_verdict(left, other, False))
        self.assertIsNotNone(checkers.check_ac_verdict(left, other, True))


class StreamTest(unittest.TestCase):
    def test_fusion(self):
        src = "(map (lambda x (* 7 x)) (fill 3 4))"
        self.assertIsNone(checkers.check_stream(src, "(fill 21 4)"))
        self.assertIsNotNone(checkers.check_stream(src, "(fill 21 3)"))

    def test_vocabulary(self):
        run = lambda text: checkers.run_stream(checkers.read(text))
        self.assertEqual(run("(getindex (reverse (cat (fill 1 2) (fill 5 1))) 1)"), 5)
        self.assertEqual(run("(sum (map (lambda x (- 10 x)) (fill 4 3)))"), 18)
        self.assertEqual(run("(length (cat (fill 1 2) (fill 1 3)))"), 5)
        self.assertEqual(
            run("(call (compose (lambda x (+ 1 x)) (lambda x (* 2 x))) 5)"), 11
        )
        self.assertEqual(run("(apply (lambda x (* x x)) 3)"), 9)

    def test_wrong_order_is_rejected(self):
        src = "(cat (fill 1 2) (fill 5 1))"
        self.assertIsNotNone(checkers.check_stream(src, "(cat (fill 5 1) (fill 1 2))"))

    def test_bad_index_is_an_error(self):
        with self.assertRaises(checkers.CheckError):
            checkers.run_stream(checkers.read("(getindex (fill 1 2) 3)"))


if __name__ == "__main__":
    unittest.main()
