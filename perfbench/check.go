package main

import (
	"bytes"
	"fmt"
	"sync"
)

// checker decides whether an answer is correct. An answer must equal,
// byte for byte, the first answer seen for the same key and, when the
// key has one, the expected answer computed in-process. It is safe for
// concurrent use.
type checker struct {
	mu       sync.Mutex
	expected map[string][]byte
	first    map[string][]byte
}

func newChecker(expected map[string][]byte) *checker {
	return &checker{expected: expected, first: make(map[string][]byte)}
}

// check reports whether body is a correct answer for key, with the
// reason when it is not.
func (c *checker) check(key string, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if want, ok := c.expected[key]; ok && !bytes.Equal(body, want) {
		return fmt.Errorf("%s: answer differs from the in-process answer (%d vs %d bytes)", key, len(body), len(want))
	}
	first, ok := c.first[key]
	if !ok {
		c.first[key] = append([]byte(nil), body...)
		return nil
	}
	if !bytes.Equal(body, first) {
		return fmt.Errorf("%s: answer differs from the first answer (%d vs %d bytes)", key, len(body), len(first))
	}
	return nil
}

// tally counts operations attempted and failed. An operation fails when
// it errors, is refused, or returns a wrong answer. Safe for concurrent
// use; the first few failure reasons are kept for the report.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, err.Error())
		}
	}
}

func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}
