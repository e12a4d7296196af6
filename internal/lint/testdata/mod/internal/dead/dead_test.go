package dead

import "testing"

func TestOwn(t *testing.T) {
	OwnTestOnly()
	_ = (&SelfOnly{}).Clone()
}
